#include "sat/solver.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace bg::sat {

namespace {

template <class T>
std::size_t capacity_bytes(const std::vector<T>& v) {
    return v.capacity() * sizeof(T);
}

}  // namespace

Var Solver::new_var() {
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(2);
    phase_.push_back(0);
    level_.push_back(0);
    reason_.push_back(kNoClause);
    activity_.push_back(0.0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_index_.push_back(-1);
    heap_insert(v);
    return v;
}

std::size_t Solver::memory_estimate() const {
    return capacity_bytes(arena_) + watch_bytes_ + capacity_bytes(watches_) +
           capacity_bytes(assigns_) + capacity_bytes(phase_) +
           capacity_bytes(level_) + capacity_bytes(reason_) +
           capacity_bytes(trail_) + capacity_bytes(activity_) +
           capacity_bytes(heap_) + capacity_bytes(heap_index_) +
           capacity_bytes(seen_) + capacity_bytes(model_);
}

bool Solver::add_clause(std::vector<Lit> lits) {
    BG_EXPECTS(decision_level() == 0, "clauses must be added at level 0");
    if (unsat_) {
        return false;
    }
    // Normalize in place: sort, dedup, drop false literals, detect
    // tautologies and satisfied clauses.
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lits.size(); ++i) {
        const Lit l = lits[i];
        BG_EXPECTS(l >= 0 && lit_var(l) < num_vars(),
                   "clause references unknown var");
        if (i + 1 < lits.size() && lits[i + 1] == lit_neg(l)) {
            return true;  // tautology: x | !x
        }
        const auto val = value(l);
        if (val == 1) {
            return true;  // already satisfied at level 0
        }
        if (val != 0) {
            lits[kept++] = l;  // unassigned
        }
    }
    lits.resize(kept);
    if (lits.empty()) {
        unsat_ = true;
        return false;
    }
    if (lits.size() == 1) {
        enqueue(lits[0], kNoClause);
        if (propagate() != kNoClause) {
            unsat_ = true;
            return false;
        }
        return true;
    }
    attach(alloc_clause(lits));
    return true;
}

Solver::CRef Solver::alloc_clause(const std::vector<Lit>& lits) {
    BG_EXPECTS(arena_.size() + lits.size() + 1 <=
                   static_cast<std::size_t>(std::numeric_limits<CRef>::max()),
               "clause arena exceeds its 32-bit offsets");
    const auto c = static_cast<CRef>(arena_.size());
    arena_.push_back(static_cast<Lit>(lits.size()));
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    return c;
}

void Solver::watch(Lit l, Watcher w) {
    auto& ws = watches_[static_cast<std::size_t>(l)];
    const std::size_t before = ws.capacity();
    ws.push_back(w);
    watch_bytes_ += (ws.capacity() - before) * sizeof(Watcher);
}

void Solver::attach(CRef c) {
    const Lit* lits = &arena_[static_cast<std::size_t>(c) + 1];
    watch(lit_neg(lits[0]), Watcher{c, lits[1]});
    watch(lit_neg(lits[1]), Watcher{c, lits[0]});
}

void Solver::enqueue(Lit l, CRef reason) {
    const Var v = lit_var(l);
    BG_ASSERT(assigns_[static_cast<std::size_t>(v)] == 2,
              "enqueue of an assigned literal");
    assigns_[static_cast<std::size_t>(v)] = lit_sign(l) ? 0 : 1;
    phase_[static_cast<std::size_t>(v)] =
        assigns_[static_cast<std::size_t>(v)];
    level_[static_cast<std::size_t>(v)] = decision_level();
    reason_[static_cast<std::size_t>(v)] = reason;
    trail_.push_back(l);
}

Solver::CRef Solver::propagate() {
    // The arena does not grow while this runs, so clause pointers into it
    // stay valid; watch() only appends to other literals' lists.
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        const Lit false_lit = lit_neg(p);
        ++propagations_;
        auto& ws = watches_[static_cast<std::size_t>(p)];
        std::size_t keep = 0;
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            const Watcher w = ws[wi];
            if (value(w.blocker) == 1) {
                ws[keep++] = w;
                continue;
            }
            const auto at = static_cast<std::size_t>(w.clause);
            const auto size = static_cast<std::size_t>(arena_[at]);
            Lit* c = &arena_[at + 1];
            // Make sure c[0] is the other watched literal.
            if (c[0] == false_lit) {
                std::swap(c[0], c[1]);
            }
            if (value(c[0]) == 1) {
                ws[keep++] = Watcher{w.clause, c[0]};
                continue;
            }
            // Find a replacement watch.
            bool moved = false;
            for (std::size_t k = 2; k < size; ++k) {
                if (value(c[k]) != 0) {
                    std::swap(c[1], c[k]);
                    watch(lit_neg(c[1]), Watcher{w.clause, c[0]});
                    moved = true;
                    break;
                }
            }
            if (moved) {
                continue;
            }
            // Clause is unit or conflicting under c[0].
            ws[keep++] = Watcher{w.clause, c[0]};
            if (value(c[0]) == 0) {
                // Conflict: restore remaining watchers and report.
                for (std::size_t rest = wi + 1; rest < ws.size(); ++rest) {
                    ws[keep++] = ws[rest];
                }
                ws.resize(keep);
                qhead_ = trail_.size();
                return w.clause;
            }
            enqueue(c[0], w.clause);
        }
        ws.resize(keep);
    }
    return kNoClause;
}

bool Solver::heap_before(Var x, Var y) const {
    const double ax = activity_[static_cast<std::size_t>(x)];
    const double ay = activity_[static_cast<std::size_t>(y)];
    return ax > ay || (ax == ay && x < y);
}

void Solver::heap_up(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!heap_before(v, heap_[parent])) {
            break;
        }
        heap_[i] = heap_[parent];
        heap_index_[static_cast<std::size_t>(heap_[i])] =
            static_cast<std::int32_t>(i);
        i = parent;
    }
    heap_[i] = v;
    heap_index_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_down(std::size_t i) {
    const Var v = heap_[i];
    while (true) {
        std::size_t child = 2 * i + 1;
        if (child >= heap_.size()) {
            break;
        }
        if (child + 1 < heap_.size() &&
            heap_before(heap_[child + 1], heap_[child])) {
            ++child;
        }
        if (!heap_before(heap_[child], v)) {
            break;
        }
        heap_[i] = heap_[child];
        heap_index_[static_cast<std::size_t>(heap_[i])] =
            static_cast<std::int32_t>(i);
        i = child;
    }
    heap_[i] = v;
    heap_index_[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
}

void Solver::heap_insert(Var v) {
    if (heap_index_[static_cast<std::size_t>(v)] >= 0) {
        return;
    }
    heap_.push_back(v);
    heap_up(heap_.size() - 1);
}

Var Solver::heap_pop() {
    const Var top = heap_.front();
    heap_index_[static_cast<std::size_t>(top)] = -1;
    const Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_down(0);
    }
    return top;
}

void Solver::bump(Var v) {
    const auto vi = static_cast<std::size_t>(v);
    activity_[vi] += var_inc_;
    if (activity_[vi] > 1e100) {
        for (auto& a : activity_) {
            a *= 1e-100;
        }
        var_inc_ *= 1e-100;
        // Scaling keeps every strict order or turns it into a tie, which
        // the heap must then break on the lower index: re-heapify.
        for (std::size_t i = heap_.size() / 2; i-- > 0;) {
            heap_down(i);
        }
    } else if (heap_index_[vi] >= 0) {
        heap_up(static_cast<std::size_t>(heap_index_[vi]));
    }
}

void Solver::analyze(CRef conflict, int& backtrack_level) {
    learned_.clear();
    learned_.push_back(0);  // slot for the asserting literal
    int counter = 0;
    Lit p = -1;
    std::size_t index = trail_.size();
    CRef reason = conflict;

    do {
        BG_ASSERT(reason != kNoClause, "conflict analysis ran out of reasons");
        const auto at = static_cast<std::size_t>(reason);
        const auto size = static_cast<std::size_t>(arena_[at]);
        const Lit* c = &arena_[at + 1];
        for (std::size_t k = 0; k < size; ++k) {
            const Lit q = c[k];
            if (p != -1 && q == p) {
                continue;
            }
            const auto v = static_cast<std::size_t>(lit_var(q));
            if (seen_[v] == 0 && level_[v] > 0) {
                seen_[v] = 1;
                bump(lit_var(q));
                if (level_[v] >= decision_level()) {
                    ++counter;
                } else {
                    learned_.push_back(q);
                }
            }
        }
        // Find the next seen literal on the trail.
        while (seen_[static_cast<std::size_t>(lit_var(trail_[index - 1]))] ==
               0) {
            --index;
        }
        --index;
        p = trail_[index];
        seen_[static_cast<std::size_t>(lit_var(p))] = 0;
        reason = reason_[static_cast<std::size_t>(lit_var(p))];
        --counter;
    } while (counter > 0);
    learned_[0] = lit_neg(p);
    // Every current-level mark was cleared on the trail walk; the marks
    // left are the learned clause's lower-level literals.
    for (std::size_t i = 1; i < learned_.size(); ++i) {
        seen_[static_cast<std::size_t>(lit_var(learned_[i]))] = 0;
    }

    // Backtrack to the second-highest level in the learned clause.
    backtrack_level = 0;
    if (learned_.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learned_.size(); ++i) {
            if (level_[static_cast<std::size_t>(lit_var(learned_[i]))] >
                level_[static_cast<std::size_t>(lit_var(learned_[max_i]))]) {
                max_i = i;
            }
        }
        std::swap(learned_[1], learned_[max_i]);
        backtrack_level =
            level_[static_cast<std::size_t>(lit_var(learned_[1]))];
    }
}

void Solver::backtrack(int target_level) {
    if (decision_level() <= target_level) {
        return;
    }
    const std::size_t lim =
        trail_lim_[static_cast<std::size_t>(target_level)];
    for (std::size_t i = trail_.size(); i-- > lim;) {
        const Var v = lit_var(trail_[i]);
        assigns_[static_cast<std::size_t>(v)] = 2;
        reason_[static_cast<std::size_t>(v)] = kNoClause;
        heap_insert(v);
    }
    trail_.resize(lim);
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
    // Every unassigned variable is in the heap; assigned ones leave it
    // here and come back on backtrack.
    while (!heap_.empty()) {
        const Var v = heap_pop();
        if (assigns_[static_cast<std::size_t>(v)] == 2) {
            return mk_lit(v, phase_[static_cast<std::size_t>(v)] == 0);
        }
    }
    return -1;
}

Result Solver::solve(const std::vector<Lit>& assumptions,
                     std::int64_t conflict_budget) {
    if (unsat_) {
        return Result::Unsat;
    }
    backtrack(0);
    if (propagate() != kNoClause) {
        unsat_ = true;
        return Result::Unsat;
    }
    if (interrupt_ && interrupt_()) {
        return Result::Unknown;
    }
    // An instance already over budget (a miter bigger than the cap)
    // degrades immediately instead of on the first conflict.
    if (memory_limit_ != 0 && memory_estimate() > memory_limit_) {
        memory_limit_hit_ = true;
        return Result::Unknown;
    }

    std::uint64_t restart_limit = 128;
    std::uint64_t conflicts_since_restart = 0;

    while (true) {
        const CRef conflict = propagate();
        if (conflict != kNoClause) {
            ++conflicts_;
            ++conflicts_since_restart;
            if (decision_level() == 0) {
                unsat_ = true;
                return Result::Unsat;
            }
            if (conflict_budget >= 0 &&
                conflicts_ > static_cast<std::uint64_t>(conflict_budget)) {
                backtrack(0);
                return Result::Unknown;
            }
            if ((conflicts_ & 255) == 0 && interrupt_ && interrupt_()) {
                backtrack(0);
                return Result::Unknown;
            }
            if (memory_limit_ != 0 && memory_estimate() > memory_limit_) {
                // The learned-clause database (never reduced in this
                // solver) crossed the memory budget: degrade, don't
                // grow — the caller treats Unknown exactly like an
                // exhausted conflict budget.
                memory_limit_hit_ = true;
                backtrack(0);
                return Result::Unknown;
            }
            int bt_level = 0;
            analyze(conflict, bt_level);
            backtrack(bt_level);
            if (learned_.size() == 1) {
                enqueue(learned_[0], kNoClause);
            } else {
                const CRef c = alloc_clause(learned_);
                attach(c);
                enqueue(learned_[0], c);
            }
            decay();
            continue;
        }

        if (conflicts_since_restart >= restart_limit) {
            conflicts_since_restart = 0;
            restart_limit += restart_limit / 2;
            backtrack(0);
            continue;
        }

        // Apply pending assumptions, then decide.
        Lit next = -1;
        for (const Lit a : assumptions) {
            const auto val = value(a);
            if (val == 0) {
                backtrack(0);
                return Result::Unsat;  // assumption falsified
            }
            if (val == 2) {
                next = a;
                break;
            }
        }
        if (next == -1) {
            next = pick_branch();
        }
        if (next == -1) {
            // Full assignment: record the model.
            model_ = assigns_;
            backtrack(0);
            return Result::Sat;
        }
        ++decisions_;
        trail_lim_.push_back(trail_.size());
        enqueue(next, kNoClause);
    }
}

}  // namespace bg::sat
