// The benchmark's own tests: each correctness check must pass on genuine
// outputs and fail on a deliberately corrupted copy of them.
#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "workloads.hpp"

namespace perfbench {
namespace {

int expect(const std::string& name, const std::string& error, bool want_error,
           const std::string& want_text = "") {
  const bool failed = !error.empty();
  const bool ok = failed == want_error &&
                  (want_text.empty() || error.find(want_text) != std::string::npos);
  std::printf("%s %-44s %s\n", ok ? "ok  " : "FAIL", name.c_str(),
              error.empty() ? "(check passed)" : error.c_str());
  return ok ? 0 : 1;
}

int smr_checks() {
  const SmrOutputs base = small_smr_run(7);
  int bad = expect("smr: genuine run", base.error, false);
  const auto check = [](const SmrOutputs& o) {
    return check_smr(o.records, 4, o.views);
  };
  bad += expect("smr: genuine outputs re-checked", check(base), false);
  if (base.views.size() < 3 || base.views.front().order.size() < 10) {
    std::printf("FAIL smr: run too small to corrupt\n");
    return bad + 1;
  }
  const auto corrupt = [&](const std::string& name, const std::string& want,
                           const std::function<void(SmrOutputs&)>& edit) {
    SmrOutputs copy = base;
    edit(copy);
    return expect(name, check(copy), true, want);
  };
  bad += corrupt("smr: wrong reply", "reply mismatch", [](SmrOutputs& o) {
    for (auto& mine : o.records)
      for (auto& r : mine)
        if (r.acked && r.op.type == app::OpType::kGet) {
          r.reply += "?";
          return;
        }
  });
  bad += corrupt("smr: request executed twice", "executed twice",
                 [](SmrOutputs& o) {
                   for (auto& v : o.views)
                     if (!v.order.empty()) v.order.push_back(v.order.front());
                 });
  bad += corrupt("smr: submitted request never executed", "never executed",
                 [](SmrOutputs& o) {
                   for (auto& v : o.views)
                     if (!v.order.empty()) v.order.pop_back();
                 });
  bad += corrupt("smr: request never submitted", "never submitted",
                 [](SmrOutputs& o) {
                   for (auto& v : o.views)
                     if (!v.order.empty())
                       v.order.push_back({v.order.front().first, 1u << 30});
                 });
  bad += corrupt("smr: replicas diverge in order", "not a prefix",
                 [](SmrOutputs& o) {
                   for (auto& v : o.views)
                     if (v.order.size() > 2) {
                       std::swap(v.order[0], v.order[1]);
                       return;
                     }
                 });
  bad += corrupt("smr: replica state differs", "state differs",
                 [](SmrOutputs& o) {
                   for (auto& v : o.views)
                     if (v.must_be_complete && !v.state.empty()) {
                       v.state.front().second += "!";
                       return;
                     }
                 });
  bad += corrupt("smr: quorum member lags", "executions behind",
                 [](SmrOutputs& o) {
                   // A complete replica whose order is a strict prefix.
                   for (auto& v : o.views)
                     if (v.must_be_complete) {
                       v.order.pop_back();
                       return;
                     }
                 });
  return bad;
}

int quorum_checks() {
  constexpr ProcessId n = 64;
  constexpr int f = 21;
  ProcessSet q;
  for (ProcessId id = 1; id <= 43; ++id) q.insert(id);
  const ProcessSet crashed{0};
  std::vector<QuorumView> base;
  for (ProcessId id = 1; id < n; ++id) {
    QuorumView v;
    v.id = id;
    v.quorum = q;
    v.max_quorums_per_epoch = 3;
    base.push_back(v);
  }
  int bad = expect("qs: agreed valid quorum", check_quorums(n, f, crashed, base),
                   false);
  const auto corrupt = [&](const std::string& name, const std::string& want,
                           const std::function<void(std::vector<QuorumView>&)>&
                               edit) {
    auto copy = base;
    edit(copy);
    return expect(name, check_quorums(n, f, crashed, copy), true, want);
  };
  bad += corrupt("qs: one process disagrees", "no agreement",
                 [](std::vector<QuorumView>& v) {
                   v[5].quorum.erase(43);
                   v[5].quorum.insert(44);
                 });
  bad += corrupt("qs: quorum of the wrong size", "has size",
                 [](std::vector<QuorumView>& v) {
                   for (auto& p : v) p.quorum.insert(50);
                 });
  bad += corrupt("qs: quorum holds a crashed process", "crashed",
                 [](std::vector<QuorumView>& v) {
                   for (auto& p : v) {
                     p.quorum.erase(43);
                     p.quorum.insert(0);
                   }
                 });
  bad += corrupt("qs: member suspects member", "inside the quorum",
                 [](std::vector<QuorumView>& v) {
                   v[3].suspicions_within_quorum.push_back({2, 9});
                 });
  bad += corrupt("qs: Theorem 3 bound exceeded", "Theorem 3",
                 [](std::vector<QuorumView>& v) {
                   v[7].max_quorums_per_epoch = f * (f + 1) + 2;
                 });
  return bad;
}

}  // namespace

int run_selftest() {
  const int bad = smr_checks() + quorum_checks();
  std::printf("%s\n", bad == 0 ? "selftest: every check passed on genuine "
                                 "outputs and failed on corrupted ones"
                               : "selftest: FAILED");
  return bad;
}

}  // namespace perfbench
