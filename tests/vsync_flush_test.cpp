// Flush-protocol edge cases: the fetch path (cut contents the initiator
// lacks), phase retries under loss, the stuck-state watchdog, joins racing
// a flush, and stale-message rejection.
#include <gtest/gtest.h>

#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

class VsyncFlushTest : public VsyncFixture {
 protected:
  HwgId form_group(std::size_t n, sim::NetworkConfig net_cfg = {},
                   VsyncConfig vs_cfg = {}) {
    build(n, net_cfg, vs_cfg);
    const HwgId gid = host(0).allocate_group_id();
    host(0).create_group(gid, user(0));
    std::vector<std::size_t> all{0};
    MemberSet members{pid(0)};
    for (std::size_t i = 1; i < n; ++i) {
      host(i).join_group(gid, MemberSet{pid(0)}, user(i));
      all.push_back(i);
      members.insert(pid(i));
    }
    EXPECT_TRUE(
        run_until([&] { return converged(gid, all, members); }, 15'000'000));
    return gid;
  }
};

TEST_F(VsyncFlushTest, NewCoordinatorFetchesMessagesItMissed) {
  // The sequencer (p0) orders a message, crashes before p1 receives it but
  // after p2 does; the new coordinator (p1) must fetch the content from p2
  // during the flush so the cut is delivered uniformly.
  sim::NetworkConfig net_cfg;
  net_cfg.jitter_us = 2'000;  // make per-receiver arrival times diverge
  net_cfg.seed = 99;
  const HwgId gid = form_group(3, net_cfg);
  for (int m = 0; m < 10; ++m) host(0).send(gid, payload(m));
  run_for(700);  // some ORDERED messages are still in flight
  net_->crash(node(0));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2}, members_of({1, 2})); }, 15'000'000));
  // Survivors agree exactly (whatever subset stabilized).
  EXPECT_EQ(user(1).total_delivered(gid), user(2).total_delivered(gid));
  const auto& e1 = user(1).log(gid).epochs;
  const auto& e2 = user(2).log(gid).epochs;
  EXPECT_EQ(e1[e1.size() - 2].delivered, e2[e2.size() - 2].delivered);
}

TEST_F(VsyncFlushTest, FlushCompletesDespiteHeavyLoss) {
  sim::NetworkConfig net_cfg;
  net_cfg.drop_probability = 0.08;  // every phase message may drop
  net_cfg.seed = 5;
  const HwgId gid = form_group(4, net_cfg);
  host(3).leave_group(gid);
  ASSERT_TRUE(run_until(
      [&] {
        // Loss can provoke transient false suspicions; the end state is
        // what matters: everyone but the leaver in one view.
        return converged(gid, {0, 1, 2}, members_of({0, 1, 2})) &&
               !host(3).is_member(gid);
      },
      120'000'000));
}

TEST_F(VsyncFlushTest, WatchdogReformsViewAfterInitiatorCrash) {
  VsyncConfig vs_cfg;
  const HwgId gid = form_group(4, {}, vs_cfg);
  // Crash the coordinator exactly while it runs a view change it initiated
  // (a join is pending), wedging participants in Stopping/Flushing.
  host(0).endpoint(gid)->force_flush();
  run_for(120'000);  // FLUSH_REQ delivered; acks in flight
  net_->crash(node(0));
  // The watchdog at the next legitimate coordinator re-forms the view.
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2, 3}, members_of({1, 2, 3})); },
      30'000'000));
}

TEST_F(VsyncFlushTest, JoinDuringFlush) {
  build(4);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      15'000'000));
  host(0).endpoint(gid)->force_flush();
  host(3).join_group(gid, MemberSet{pid(0)}, user(3));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      15'000'000));
}

TEST_F(VsyncFlushTest, ForceFlushIsNoopAtNonCoordinator) {
  const HwgId gid = form_group(3);
  const auto views_before = user(0).log(gid).epochs.size();
  host(2).endpoint(gid)->force_flush();  // not the coordinator
  run_for(3'000'000);
  EXPECT_EQ(user(0).log(gid).epochs.size(), views_before);
}

TEST_F(VsyncFlushTest, ForceFlushInstallsFreshViewWithSameMembers) {
  const HwgId gid = form_group(3);
  const ViewId before = host(0).view_of(gid)->id;
  host(0).endpoint(gid)->force_flush();
  ASSERT_TRUE(run_until(
      [&] {
        const View* v = host(2).view_of(gid);
        return v != nullptr && !(v->id == before);
      },
      10'000'000));
  const View* v = host(2).view_of(gid);
  EXPECT_EQ(v->members, members_of({0, 1, 2}));
  ASSERT_EQ(v->predecessors.size(), 1u);
  EXPECT_EQ(v->predecessors[0], before);
}

TEST_F(VsyncFlushTest, StaleOrderedFromSupersededViewIsIgnored) {
  const HwgId gid = form_group(2);
  host(0).send(gid, payload(1));
  ASSERT_TRUE(
      run_until([&] { return user(1).total_delivered(gid) == 1; }, 5'000'000));
  const std::size_t epochs_before = user(1).log(gid).epochs.size();
  host(0).endpoint(gid)->force_flush();
  ASSERT_TRUE(run_until(
      [&] { return user(1).log(gid).epochs.size() > epochs_before; },
      10'000'000));
  // Nothing new was delivered by the flush itself.
  EXPECT_EQ(user(1).total_delivered(gid), 1u);
}

TEST_F(VsyncFlushTest, BackToBackFlushesStaySane) {
  const HwgId gid = form_group(4);
  for (int i = 0; i < 5; ++i) {
    host(0).endpoint(gid)->force_flush();
    host(1).send(gid, payload(static_cast<std::uint8_t>(i)));
    run_for(1'500'000);
  }
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 4; ++i) {
          if (user(i).total_delivered(gid) != 5) return false;
        }
        return true;
      },
      20'000'000));
  // All members delivered the identical sequence across all the epochs.
  auto flat = [&](std::size_t i) {
    std::vector<std::uint8_t> out;
    for (const auto& e : user(i).log(gid).epochs) {
      for (const auto& [src, data] : e.delivered) out.push_back(data[0]);
    }
    return out;
  };
  const auto ref = flat(0);
  for (std::size_t i = 1; i < 4; ++i) EXPECT_EQ(flat(i), ref);
}

TEST_F(VsyncFlushTest, FetchIsAnsweredFromTheHoldersLog) {
  // p1 misses three ORDERED that p2 has; the sequencer then crashes. The new
  // coordinator (p1) can only complete the cut by FETCHing those messages
  // from p2's log: NACKs to the dead sequencer go unanswered.
  const HwgId gid = form_group(3);
  net_->set_link_fault(node(0), node(1), sim::LinkFault{.blocked = true});
  for (std::uint8_t m = 0; m < 3; ++m) host(0).send(gid, payload(m));
  run_for(20'000);
  ASSERT_EQ(user(1).total_delivered(gid), 0u);
  ASSERT_EQ(user(2).total_delivered(gid), 3u);
  net_->crash(node(0));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {1, 2}, members_of({1, 2})); }, 15'000'000));
  EXPECT_EQ(user(1).total_delivered(gid), 3u);
  EXPECT_EQ(user(2).total_delivered(gid), 3u);
}

TEST_F(VsyncFlushTest, RetriedFlushCutDeliversEachMessageOnce) {
  const HwgId gid = form_group(3);
  host(0).send(gid, payload(0));
  ASSERT_TRUE(
      run_until([&] { return user(2).total_delivered(gid) == 1; }, 5'000'000));

  // p2 misses three ORDERED, and the flush starts before a NACK repairs
  // them, so the cut must deliver them at p2.
  net_->set_link_fault(node(0), node(2), sim::LinkFault{.blocked = true});
  for (std::uint8_t m = 1; m <= 3; ++m) host(0).send(gid, payload(m));
  run_for(20'000);
  net_->clear_link_fault(node(0), node(2));
  ASSERT_EQ(user(2).total_delivered(gid), 1u);
  const ViewId before = host(0).view_of(gid)->id;
  host(0).endpoint(gid)->force_flush();

  // Step event by event. Once p2's FLUSH_ACK frame is on the wire, cut the
  // p2 -> p0 direction: p2's FLUSH_DONE is lost, so p0 re-sends the cut and
  // p2 handles the same FLUSH_CUT a second time.
  auto step_until = [&](const std::function<bool()>& pred) {
    for (int i = 0; i < 1'000'000 && !pred(); ++i) {
      if (!sim_.step()) break;
    }
    return pred();
  };
  const GroupEndpoint* ep = host(2).endpoint(gid);
  const auto frame_out = [&] {
    const std::uint64_t sent = nodes_[2]->stats().frames_sent;
    return step_until([&] { return nodes_[2]->stats().frames_sent > sent; });
  };
  ASSERT_TRUE(
      step_until([&] { return ep->state() == GroupEndpoint::State::kFlushing; }));
  ASSERT_TRUE(frame_out());  // the FLUSH_ACK
  net_->set_link_fault(node(2), node(0), sim::LinkFault{.blocked = true});
  ASSERT_TRUE(
      step_until([&] { return ep->state() == GroupEndpoint::State::kStopped; }));
  EXPECT_EQ(user(2).total_delivered(gid), 4u);  // the cut filled the gap
  const std::uint64_t blocked = net_->stats().link_blocked;
  ASSERT_TRUE(frame_out());  // the FLUSH_DONE, eaten by the link
  net_->clear_link_fault(node(2), node(0));
  ASSERT_GT(net_->stats().link_blocked, blocked);

  const Time stopped_at = sim_.now();
  ASSERT_TRUE(run_until(
      [&] {
        const View* v = host(2).view_of(gid);
        return v != nullptr && !(v->id == before) &&
               converged(gid, {0, 1, 2}, members_of({0, 1, 2}));
      },
      10'000'000));
  EXPECT_GE(sim_.now() - stopped_at, VsyncConfig{}.flush_retry_us);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(user(i).total_delivered(gid), 4u) << "member " << i;
  }
}

TEST_F(VsyncFlushTest, LeaveDuringFlushIsHonoredEventually) {
  const HwgId gid = form_group(4);
  host(0).endpoint(gid)->force_flush();
  host(3).leave_group(gid);
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      15'000'000));
  EXPECT_FALSE(host(3).is_member(gid));
}

}  // namespace
}  // namespace plwg::vsync::testing
