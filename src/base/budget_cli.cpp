#include "base/budget_cli.hpp"

#include <cstdlib>
#include <iostream>

#include "base/flow_cli.hpp"

namespace turbosyn {
namespace {

/// The value after budget flag argv[i], advancing i past it. Anything but a
/// non-negative integer is a usage error (exit 2): "--deadline-ms abc" must
/// not silently become a 0 ms deadline. 2^40 bounds every knob far above
/// any sensible setting while keeping deadline arithmetic in range.
long long budget_value(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  const char* text = i + 1 < argc ? argv[i + 1] : "";
  long long value = 0;
  if (i + 1 >= argc || !parse_int_strict(text, 0LL, 1LL << 40, value)) {
    std::cerr << "error: " << flag << " expects a non-negative integer, got '" << text
              << "'\nusage: " << budget_cli_help() << '\n';
    std::exit(2);
  }
  ++i;
  return value;
}

}  // namespace

RunBudget budget_from_cli(int argc, char** argv) {
  RunBudget budget;
  budget.set_cancel_token(&global_cancel_token());
  install_sigint_cancellation();
  install_sigterm_cancellation();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--deadline-ms") {
      budget.set_deadline_after_ms(budget_value(argc, argv, i));
    } else if (flag == "--bdd-node-budget") {
      budget.set_bdd_node_budget(static_cast<std::size_t>(budget_value(argc, argv, i)));
    } else if (flag == "--decomp-attempt-budget") {
      budget.set_decomp_attempt_budget(budget_value(argc, argv, i));
    } else if (flag == "--flow-augment-budget") {
      budget.set_flow_augment_budget(budget_value(argc, argv, i));
    }
  }
  return budget;
}

const char* budget_cli_help() {
  return "[--deadline-ms N] [--bdd-node-budget N] [--decomp-attempt-budget N] "
         "[--flow-augment-budget N]  (Ctrl-C cancels cooperatively)";
}

}  // namespace turbosyn
