#pragma once

/// \file glob.hpp
/// Shell-style glob matching ('*' = any run including empty, '?' = any
/// single character, everything else literal) — the pattern language of
/// registry and file-backed design specs (circuits::resolve_design_spec).

#include <string>

namespace bg {

inline bool glob_match(const std::string& pattern, const std::string& text) {
    // Iterative '*'/'?' matcher with single-star backtracking.
    const char* pat = pattern.c_str();
    const char* str = text.c_str();
    const char* star = nullptr;
    const char* resume = nullptr;
    while (*str != '\0') {
        if (*pat == *str || *pat == '?') {
            ++pat;
            ++str;
        } else if (*pat == '*') {
            star = pat++;
            resume = str;
        } else if (star != nullptr) {
            pat = star + 1;
            str = ++resume;
        } else {
            return false;
        }
    }
    while (*pat == '*') {
        ++pat;
    }
    return *pat == '\0';
}

/// True when the string contains glob metacharacters.
inline bool has_glob_chars(const std::string& s) {
    return s.find_first_of("*?") != std::string::npos;
}

}  // namespace bg
