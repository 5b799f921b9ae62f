#pragma once

#include <string>

namespace pb {

/// Runs the self-checks; empty on success, else the first failure.
std::string run_self_checks();

}  // namespace pb
