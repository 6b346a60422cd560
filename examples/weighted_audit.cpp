// The weighted k-AV problem (Section V) in action, twice over:
//
//  1. A storage trace where some writes are marked "important": the
//     staleness bound is expressed as a weight budget, so a read may
//     lag several unimportant writes but few important ones.
//  2. The NP-completeness construction itself (Figure 5): a bin-packing
//     instance is reduced to k-WAV and both sides are solved, showing
//     the equivalence on concrete instances.
//
//   $ ./weighted_audit
#include <cstdio>
#include <vector>

#include "kav.h"

using namespace kav;

namespace {

void part_one_weighted_trace() {
  std::printf("== part 1: important writes ==\n");
  // A register receives one important write (a password change, weight
  // 5) among unimportant ones (presence updates, weight 1). A read that
  // lags the password change is far worse than one lagging presence.
  HistoryBuilder builder;
  const OpId w_presence1 = builder.write(0, 10, 1);
  builder.write(20, 30, 2);                          // presence
  const OpId w_password = builder.write(40, 50, 3);  // important!
  builder.read(60, 70, 1);  // stale read of presence v1
  const History history = builder.build();
  (void)w_presence1;

  std::vector<Weight> weights(history.size(), 1);
  weights[w_password] = 5;

  // Baseline: the unweighted Engine view. The stale read lags two
  // writes, so the trace is 3-atomic but not 2-atomic -- every write
  // counts the same. The weighted bound below is what distinguishes
  // lagging the password change from lagging presence noise.
  Engine engine;
  KeyedTrace trace;
  for (const Operation& op : history.operations()) trace.add("acct", op);
  RunOptions run;
  VerifyOptions verify;
  for (int k = 2; k <= 3; ++k) {
    verify.k = k;
    run.verify = verify;
    const Report report = engine.verify(trace, run);
    std::printf("  unweighted k=%d -> %s\n", k,
                describe(report.per_key.at("acct").verdict).c_str());
  }

  const WeightedHistory weighted{history, weights};
  std::printf("read of v1 lags two writes; one of them is important "
              "(weight 5)\n");
  for (Weight budget = 3; budget <= 7; ++budget) {
    const Verdict result = check_weighted_k_atomicity(weighted, budget);
    std::printf("  weight budget k=%lld -> %s\n",
                static_cast<long long>(budget), to_string(result.outcome));
  }
  std::printf("the trace needs budget 7 = w1(1) + presence(1) + "
              "password(5): the important write dominates the bound.\n\n");
}

void part_two_reduction() {
  std::printf("== part 2: Theorem 5.1, executable ==\n");
  const BinPackingInstance instance{{4, 4, 2, 2}, 6, 2};
  std::printf("bin packing: items {4, 4, 2, 2}, capacity 6, 2 bins\n");
  const bool feasible = bin_packing_feasible(instance);
  std::printf("  exact bin-packing solver: %s\n",
              feasible ? "feasible" : "infeasible");
  std::printf("  first-fit-decreasing uses %d bins\n",
              first_fit_decreasing_bins(instance.sizes, instance.capacity));

  const KwavReduction reduction = reduce_bin_packing_to_kwav(instance);
  std::printf("  reduced to k-WAV: %zu operations, k = B + 2 = %lld\n",
              reduction.instance.history.size(),
              static_cast<long long>(reduction.k));
  const Verdict kwav =
      check_weighted_k_atomicity(reduction.instance, reduction.k);
  std::printf("  weighted verifier: %s  (matches bin packing: %s)\n",
              to_string(kwav.outcome),
              kwav.yes() == feasible ? "yes" : "NO -- bug!");
  if (kwav.yes()) {
    const WitnessCheck check =
        validate_weighted_witness(reduction.instance.history, kwav.witness,
                                  reduction.instance.weights, reduction.k);
    std::printf("  witness validated independently: %s\n",
                check.ok() ? "ok" : check.detail.c_str());
    // Recover the packing from the witness: a long write belongs to the
    // bin of the short-write span it was ordered into.
    std::vector<int> bin_of(reduction.long_writes.size(), 0);
    int current_bin = 0;
    for (OpId id : kwav.witness) {
      for (std::size_t s = 0; s < reduction.short_writes.size(); ++s) {
        if (reduction.short_writes[s] == id) {
          current_bin = static_cast<int>(s);  // after w(i): bin i
        }
      }
      for (std::size_t j = 0; j < reduction.long_writes.size(); ++j) {
        if (reduction.long_writes[j] == id) bin_of[j] = current_bin;
      }
    }
    std::printf("  packing recovered from the witness:\n");
    for (std::size_t j = 0; j < bin_of.size(); ++j) {
      std::printf("    item %zu (size %lld) -> bin %d\n", j,
                  static_cast<long long>(instance.sizes[j]), bin_of[j]);
    }
  }

  const BinPackingInstance impossible{{4, 4, 4}, 6, 2};
  const KwavReduction red2 = reduce_bin_packing_to_kwav(impossible);
  std::printf("\nbin packing: items {4, 4, 4}, capacity 6, 2 bins\n");
  std::printf("  exact bin-packing solver: %s\n",
              bin_packing_feasible(impossible) ? "feasible" : "infeasible");
  std::printf("  weighted verifier on the reduction: %s\n",
              to_string(check_weighted_k_atomicity(red2.instance,
                                                   red2.k).outcome));
}

}  // namespace

int main() {
  part_one_weighted_trace();
  part_two_reduction();
  return 0;
}
