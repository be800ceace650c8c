#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace bg::sat {

namespace {

/// Approximate per-variable footprint: the per-var entries plus two
/// watcher-list headers (their elements are charged per clause).
constexpr std::size_t kBytesPerVar =
    sizeof(std::int8_t) * 2 + sizeof(int) + sizeof(std::int32_t) +
    sizeof(double) + 2 * sizeof(std::vector<int>);  // list headers

/// Approximate footprint of one attached clause: header, literal
/// storage, and its two watcher entries.
std::size_t clause_bytes(std::size_t num_lits) {
    return 2 * sizeof(void*) + num_lits * sizeof(Lit) + 32;
}

}  // namespace

Var Solver::new_var() {
    const Var v = static_cast<Var>(assigns_.size());
    assigns_.push_back(2);
    phase_.push_back(0);
    level_.push_back(0);
    reason_.push_back(-1);
    activity_.push_back(0.0);
    watches_.emplace_back();
    watches_.emplace_back();
    mem_bytes_ += kBytesPerVar;
    return v;
}

bool Solver::add_clause(std::vector<Lit> lits) {
    BG_EXPECTS(decision_level() == 0, "clauses must be added at level 0");
    if (unsat_) {
        return false;
    }
    // Normalize: sort, dedup, drop false literals, detect tautologies and
    // satisfied clauses.
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    std::vector<Lit> out;
    out.reserve(lits.size());
    for (std::size_t i = 0; i < lits.size(); ++i) {
        const Lit l = lits[i];
        BG_EXPECTS(lit_var(l) < num_vars(), "clause references unknown var");
        if (i + 1 < lits.size() && lits[i + 1] == lit_neg(l)) {
            return true;  // tautology: x | !x
        }
        const auto val = value(l);
        if (val == 1) {
            return true;  // already satisfied at level 0
        }
        if (val != 0) {
            out.push_back(l);  // unassigned
        }
    }
    if (out.empty()) {
        unsat_ = true;
        return false;
    }
    if (out.size() == 1) {
        enqueue(out[0], -1);
        if (propagate() != -1) {
            unsat_ = true;
            return false;
        }
        return true;
    }
    mem_bytes_ += clause_bytes(out.size());
    clauses_.push_back(Clause{std::move(out), false});
    attach(static_cast<std::int32_t>(clauses_.size()) - 1);
    return true;
}

void Solver::attach(std::int32_t ci) {
    const auto& c = clauses_[static_cast<std::size_t>(ci)].lits;
    watches_[static_cast<std::size_t>(lit_neg(c[0]))].push_back(
        Watcher{ci, c[1]});
    watches_[static_cast<std::size_t>(lit_neg(c[1]))].push_back(
        Watcher{ci, c[0]});
}

void Solver::enqueue(Lit l, std::int32_t reason) {
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

std::int32_t Solver::propagate() {
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++propagations_;
        auto& ws = watches_[static_cast<std::size_t>(p)];
        std::size_t keep = 0;
        for (std::size_t wi = 0; wi < ws.size(); ++wi) {
            const Watcher w = ws[wi];
            if (value(w.blocker) == 1) {
                ws[keep++] = w;
                continue;
            }
            auto& c = clauses_[static_cast<std::size_t>(w.clause)].lits;
            // Make sure c[0] is the other watched literal.
            const Lit false_lit = lit_neg(p);
            if (c[0] == false_lit) {
                std::swap(c[0], c[1]);
            }
            if (value(c[0]) == 1) {
                ws[keep++] = Watcher{w.clause, c[0]};
                continue;
            }
            // Find a replacement watch.
            bool moved = false;
            for (std::size_t k = 2; k < c.size(); ++k) {
                if (value(c[k]) != 0) {
                    std::swap(c[1], c[k]);
                    watches_[static_cast<std::size_t>(lit_neg(c[1]))]
                        .push_back(Watcher{w.clause, c[0]});
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
    return -1;
}

void Solver::bump(Var v) {
    activity_[static_cast<std::size_t>(v)] += var_inc_;
    if (activity_[static_cast<std::size_t>(v)] > 1e100) {
        for (auto& a : activity_) {
            a *= 1e-100;
        }
        var_inc_ *= 1e-100;
    }
}

void Solver::analyze(std::int32_t conflict, std::vector<Lit>& learned,
                     int& backtrack_level) {
    learned.clear();
    learned.push_back(0);  // slot for the asserting literal
    std::vector<bool> seen(static_cast<std::size_t>(num_vars()), false);
    int counter = 0;
    Lit p = -1;
    std::size_t index = trail_.size();
    std::int32_t reason = conflict;

    do {
        BG_ASSERT(reason != -1, "conflict analysis ran out of reasons");
        const auto& c = clauses_[static_cast<std::size_t>(reason)].lits;
        for (const Lit q : c) {
            if (p != -1 && q == p) {
                continue;
            }
            const Var v = lit_var(q);
            if (!seen[static_cast<std::size_t>(v)] &&
                level_[static_cast<std::size_t>(v)] > 0) {
                seen[static_cast<std::size_t>(v)] = true;
                bump(v);
                if (level_[static_cast<std::size_t>(v)] >= decision_level()) {
                    ++counter;
                } else {
                    learned.push_back(q);
                }
            }
        }
        // Find the next seen literal on the trail.
        while (!seen[static_cast<std::size_t>(lit_var(trail_[index - 1]))]) {
            --index;
        }
        --index;
        p = trail_[index];
        seen[static_cast<std::size_t>(lit_var(p))] = false;
        reason = reason_[static_cast<std::size_t>(lit_var(p))];
        --counter;
    } while (counter > 0);
    learned[0] = lit_neg(p);

    // Backtrack to the second-highest level in the learned clause.
    backtrack_level = 0;
    if (learned.size() > 1) {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < learned.size(); ++i) {
            if (level_[static_cast<std::size_t>(lit_var(learned[i]))] >
                level_[static_cast<std::size_t>(lit_var(learned[max_i]))]) {
                max_i = i;
            }
        }
        std::swap(learned[1], learned[max_i]);
        backtrack_level =
            level_[static_cast<std::size_t>(lit_var(learned[1]))];
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
        reason_[static_cast<std::size_t>(v)] = -1;
    }
    trail_.resize(lim);
    trail_lim_.resize(static_cast<std::size_t>(target_level));
    qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
    // Linear activity scan — simple and adequate at this library's miter
    // sizes (a few thousand variables).
    Var best = -1;
    double best_act = -1.0;
    for (Var v = 0; v < num_vars(); ++v) {
        if (assigns_[static_cast<std::size_t>(v)] == 2 &&
            activity_[static_cast<std::size_t>(v)] > best_act) {
            best_act = activity_[static_cast<std::size_t>(v)];
            best = v;
        }
    }
    if (best < 0) {
        return -1;
    }
    return mk_lit(best, phase_[static_cast<std::size_t>(best)] == 0);
}

Result Solver::solve(const std::vector<Lit>& assumptions,
                     std::int64_t conflict_budget) {
    if (unsat_) {
        return Result::Unsat;
    }
    backtrack(0);
    if (propagate() != -1) {
        unsat_ = true;
        return Result::Unsat;
    }
    if (interrupt_ && interrupt_()) {
        return Result::Unknown;
    }
    // An instance already over budget (a miter bigger than the cap)
    // degrades immediately instead of on the first conflict.
    if (memory_limit_ != 0 && mem_bytes_ > memory_limit_) {
        memory_limit_hit_ = true;
        return Result::Unknown;
    }

    std::uint64_t restart_limit = 128;
    std::uint64_t conflicts_since_restart = 0;

    while (true) {
        const std::int32_t conflict = propagate();
        if (conflict != -1) {
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
            if (memory_limit_ != 0 && mem_bytes_ > memory_limit_) {
                // The learned-clause database (never reduced in this
                // solver) crossed the memory budget: degrade, don't
                // grow — the caller treats Unknown exactly like an
                // exhausted conflict budget.
                memory_limit_hit_ = true;
                backtrack(0);
                return Result::Unknown;
            }
            std::vector<Lit> learned;
            int bt_level = 0;
            analyze(conflict, learned, bt_level);
            backtrack(bt_level);
            if (learned.size() == 1) {
                enqueue(learned[0], -1);
            } else {
                mem_bytes_ += clause_bytes(learned.size());
                clauses_.push_back(Clause{learned, true});
                const auto ci =
                    static_cast<std::int32_t>(clauses_.size()) - 1;
                attach(ci);
                enqueue(learned[0], ci);
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
        enqueue(next, -1);
    }
}

}  // namespace bg::sat
