// Run-time reconfiguration details of the LWG service: forward-pointer
// redirects, leaves racing switches, queued sends across switches, the
// on_lwg_merge application hook, and baseline behaviour under partitions.
#include <gtest/gtest.h>

#include "lwg_fixture.hpp"

namespace plwg::lwg::testing {
namespace {

harness::WorldConfig dyn_config(std::size_t processes) {
  harness::WorldConfig cfg;
  cfg.num_processes = processes;
  cfg.num_name_servers = 2;
  cfg.lwg.policy_period_us = 2'000'000;
  cfg.lwg.shrink_delay_us = 4'000'000;
  return cfg;
}

class LwgReconfigTest : public LwgFixture {};

TEST_F(LwgReconfigTest, QueuedSendsSurviveASwitch) {
  build(dyn_config(8));
  form_lwg(LwgId{1}, {0, 1, 2, 3, 4, 5, 6, 7});
  form_lwg(LwgId{2}, {0, 1});
  // Fire a burst right as the policy window opens; some sends land inside
  // the switch freeze and must come out on the new HWG.
  for (int i = 0; i < 50; ++i) {
    lwg(0).send(LwgId{2}, payload(static_cast<std::uint8_t>(i)));
    run_for(100'000);
  }
  ASSERT_TRUE(run_until(
      [&] {
        return user(1).total_delivered(LwgId{2}) == 50 &&
               user(0).total_delivered(LwgId{2}) == 50;
      },
      40'000'000));
  EXPECT_GE(lwg(0).stats().switches_completed, 1u);
  // FIFO per sender preserved across the switch.
  std::vector<std::uint8_t> seen;
  for (const auto& e : user(1).log(LwgId{2}).epochs) {
    for (const auto& [src, data] : e.delivered) seen.push_back(data[0]);
  }
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    EXPECT_LT(seen[i], seen[i + 1]);
  }
}

// An HWG endpoint excluded while wedged is swept at once, but the LWG
// service only notices at its next tick. A send in that gap used to abort
// ("send on a group we are not in"); it must be held for the next view.
TEST_F(LwgReconfigTest, SendAfterHwgEndpointSweptIsHeldForNextView) {
  build(dyn_config(1));
  const LwgId id{1};
  form_lwg(id, {0});
  const HwgId hwg = *lwg(0).hwg_of(id);
  // A sole member's leave dissolves the HWG and sweeps the endpoint now,
  // behind the LWG service's back — the state an exclusion leaves.
  world().vsync(0).leave_group(hwg);
  ASSERT_FALSE(world().vsync(0).is_member(hwg));
  lwg(0).send(id, payload(7));
  EXPECT_EQ(lwg(0).view_of(id), nullptr);  // re-resolving, not waiting a tick
  ASSERT_TRUE(run_until([&] { return user(0).total_delivered(id) == 1; },
                        20'000'000));
  EXPECT_EQ(user(0).log(id).epochs.back().delivered.front().second,
            payload(7));
}

TEST_F(LwgReconfigTest, LeaveDuringSwitchCompletes) {
  build(dyn_config(8));
  form_lwg(LwgId{1}, {0, 1, 2, 3, 4, 5, 6, 7});
  form_lwg(LwgId{2}, {0, 1, 2});
  // Trigger the eviction switch, and have member 2 leave around the same
  // time (2s policy period; leave lands mid-flight often enough that the
  // test exercises both orders deterministically under the fixed seed).
  run_for(1'900'000);
  lwg(2).leave(LwgId{2});
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(LwgId{2}, {0, 1}, members_of({0, 1})); },
      40'000'000));
  EXPECT_EQ(lwg(2).view_of(LwgId{2}), nullptr);
  // The group still carries data.
  lwg(0).send(LwgId{2}, payload(9));
  ASSERT_TRUE(run_until(
      [&] { return user(1).total_delivered(LwgId{2}) >= 1; }, 10'000'000));
}

TEST_F(LwgReconfigTest, OnLwgMergeHookReportsConstituents) {
  class MergeRecorder : public RecordingLwgUser {
   public:
    void on_lwg_merge(LwgId, const std::vector<LwgView>& constituents,
                      const LwgView& merged_view) override {
      merges++;
      last_constituents = constituents;
      last_merged = merged_view;
    }
    int merges = 0;
    std::vector<LwgView> last_constituents;
    LwgView last_merged;
  };

  harness::WorldConfig cfg = dyn_config(4);
  build(cfg);
  MergeRecorder recorder;
  const LwgId id{1};
  lwg(0).join(id, recorder);
  for (std::size_t i = 1; i < 4; ++i) lwg(i).join(id, user(i));
  ASSERT_TRUE(run_until(
      [&] { return lwg(0).view_of(id) != nullptr &&
                   lwg(0).view_of(id)->members.size() == 4; },
      30'000'000));

  world().partition({{0, 1}, {2, 3}}, {0, 1});
  ASSERT_TRUE(run_until(
      [&] {
        const LwgView* v = lwg(0).view_of(id);
        return v != nullptr && v->members.size() == 2;
      },
      30'000'000));
  world().heal();
  ASSERT_TRUE(run_until(
      [&] {
        const LwgView* v = lwg(0).view_of(id);
        return v != nullptr && v->members.size() == 4;
      },
      60'000'000));
  ASSERT_GE(recorder.merges, 1);
  EXPECT_GE(recorder.last_constituents.size(), 2u);
  EXPECT_EQ(recorder.last_merged.members, members_of({0, 1, 2, 3}));
  // Our own pre-merge view is among the constituents.
  bool own_found = false;
  for (const LwgView& c : recorder.last_constituents) {
    own_found |= c.members.contains(pid(0));
  }
  EXPECT_TRUE(own_found);
}

TEST_F(LwgReconfigTest, PerGroupModeSurvivesPartitionCycle) {
  harness::WorldConfig cfg = dyn_config(4);
  cfg.lwg.mode = MappingMode::kPerGroup;
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3});
  world().partition({{0, 1}, {2, 3}}, {0, 1});
  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1}, members_of({0, 1})) &&
               lwg_converged(id, {2, 3}, members_of({2, 3}));
      },
      30'000'000));
  world().heal();
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      60'000'000));
}

TEST_F(LwgReconfigTest, StaticModeSurvivesPartitionCycle) {
  harness::WorldConfig cfg = dyn_config(4);
  cfg.lwg.mode = MappingMode::kStaticSingle;
  cfg.lwg.static_hwg = HwgId{0xFFFF'0001};
  cfg.lwg.static_contacts =
      MemberSet{ProcessId{0}, ProcessId{1}, ProcessId{2}, ProcessId{3}};
  build(cfg);
  const LwgId id{1};
  form_lwg(id, {0, 1, 2, 3});
  world().partition({{0, 1}, {2, 3}}, {0, 1});
  ASSERT_TRUE(run_until(
      [&] {
        return lwg_converged(id, {0, 1}, members_of({0, 1})) &&
               lwg_converged(id, {2, 3}, members_of({2, 3}));
      },
      30'000'000));
  world().heal();
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      60'000'000));
  // Static mode: still exactly one HWG everywhere.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lwg(i).member_hwgs().size(), 1u);
    EXPECT_EQ(*lwg(i).hwg_of(id), HwgId{0xFFFF'0001});
  }
}

TEST_F(LwgReconfigTest, RejoinAfterFullLeave) {
  build(dyn_config(3));
  const LwgId id{1};
  form_lwg(id, {0, 1, 2});
  for (std::size_t i = 0; i < 3; ++i) lwg(i).leave(id);
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 3; ++i) {
          if (lwg(i).view_of(id) != nullptr) return false;
        }
        return true;
      },
      30'000'000));
  // The group can be re-created from scratch under the same LwgId.
  lwg(1).join(id, user(1));
  lwg(2).join(id, user(2));
  ASSERT_TRUE(run_until(
      [&] { return lwg_converged(id, {1, 2}, members_of({1, 2})); },
      40'000'000));
}

TEST_F(LwgReconfigTest, ManyGroupsManageableByOneProcess) {
  build(dyn_config(4));
  // 20 groups, same membership: all share one HWG; per-group cost is a map
  // entry, not a protocol stack.
  std::vector<LwgId> ids;
  for (std::uint64_t g = 0; g < 20; ++g) ids.push_back(LwgId{500 + g});
  for (LwgId id : ids) {
    lwg(0).join(id, user(0));
  }
  ASSERT_TRUE(run_until(
      [&] {
        for (LwgId id : ids) {
          if (lwg(0).view_of(id) == nullptr) return false;
        }
        return true;
      },
      60'000'000));
  // Concurrent creations at one process reuse one provisional HWG (plus the
  // share rule collapsing any straggler), so the memberships converge to 1.
  ASSERT_TRUE(run_until(
      [&] { return lwg(0).member_hwgs().size() == 1; }, 60'000'000));
  EXPECT_EQ(lwg(0).local_groups().size(), 20u);
}

}  // namespace
}  // namespace plwg::lwg::testing
