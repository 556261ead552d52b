// Stability-floor log GC: members piggyback their delivery bound on
// heartbeats, the sequencer folds them into a view-wide floor advertised on
// ORDERED traffic and heartbeats, and everyone trims the seqs below it from
// the retransmission log — without breaking NACK repair or flush cuts.
#include <gtest/gtest.h>

#include "vsync_fixture.hpp"

namespace plwg::vsync::testing {
namespace {

class VsyncStabilityTest : public VsyncFixture {};

TEST_F(VsyncStabilityTest, StableLogEntriesAreTrimmedEverywhere) {
  build(3);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      5'000'000));

  const std::size_t kMsgs = 20;
  for (std::size_t m = 0; m < kMsgs; ++m) {
    host(m % 3).send(gid, payload(static_cast<std::uint8_t>(m)));
    run_for(20'000);
  }
  ASSERT_TRUE(run_until(
      [&] {
        return user(0).total_delivered(gid) >= kMsgs &&
               user(1).total_delivered(gid) >= kMsgs &&
               user(2).total_delivered(gid) >= kMsgs;
      },
      5'000'000));

  // A couple of heartbeat rounds: bounds flow member -> sequencer -> floor
  // -> members, and the periodic tick trims.
  run_for(1'500'000);
  for (std::size_t i = 0; i < 3; ++i) {
    const GroupEndpoint* ep = host(i).endpoint(gid);
    ASSERT_NE(ep, nullptr);
    EXPECT_GT(ep->stats().log_trimmed, 0u) << "member " << i;
  }
}

TEST_F(VsyncStabilityTest, ViewChangeAfterTrimStaysVirtuallySynchronous) {
  build(4);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      5'000'000));

  for (std::size_t m = 0; m < 12; ++m) {
    host(m % 3).send(gid, payload(static_cast<std::uint8_t>(m)));
    run_for(20'000);
  }
  run_for(1'500'000);  // let the floor propagate and the logs trim
  ASSERT_GT(host(0).endpoint(gid)->stats().log_trimmed, 0u);

  // A flush over trimmed logs: the cut must come out of what is left, and
  // the joiner must land in a consistent view (the fixture's oracle checks
  // delivery consistency on teardown).
  host(3).join_group(gid, MemberSet{pid(0)}, user(3));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2, 3}, members_of({0, 1, 2, 3})); },
      5'000'000));

  host(3).send(gid, payload(99));
  ASSERT_TRUE(run_until(
      [&] {
        for (std::size_t i = 0; i < 4; ++i) {
          const auto& epochs = user(i).log(gid).epochs;
          if (epochs.empty() || epochs.back().delivered.empty()) return false;
        }
        return true;
      },
      5'000'000));
}

TEST_F(VsyncStabilityTest, OrderedReceivedAgainAfterTrimIsNotRedelivered) {
  build(3);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      5'000'000));

  for (std::uint8_t m = 0; m < 6; ++m) {
    host(0).send(gid, payload(m));
    run_for(20'000);
  }
  run_for(1'500'000);  // let the floor propagate and the logs trim
  GroupEndpoint* ep = host(1).endpoint(gid);
  ASSERT_GT(ep->stats().log_trimmed, 0u);
  ASSERT_EQ(user(1).total_delivered(gid), 6u);

  // A late duplicate of the view's first ORDERED (p0's first send) arrives
  // after its seq was trimmed: it must not be delivered again...
  const OrderedMsgWire late{host(1).view_of(gid)->id, 0,
                            OrderedMsg{1, pid(0), 1, payload(0)}};
  Encoder enc;
  late.encode(enc);
  Decoder dec(enc.bytes());
  ep->on_message(pid(0), MsgType::kOrdered, dec);
  EXPECT_EQ(user(1).total_delivered(gid), 6u);

  // ...nor by the next flush, whose have-lists and cut now see it.
  const ViewId before = host(1).view_of(gid)->id;
  host(0).endpoint(gid)->force_flush();
  ASSERT_TRUE(run_until(
      [&] {
        const View* v = host(1).view_of(gid);
        return v != nullptr && !(v->id == before) &&
               converged(gid, {0, 1, 2}, members_of({0, 1, 2}));
      },
      10'000'000));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(user(i).total_delivered(gid), 6u) << "member " << i;
  }
}

TEST_F(VsyncStabilityTest, NackIsAnsweredFromTheSequencersLog) {
  build(3);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  host(2).join_group(gid, MemberSet{pid(0)}, user(2));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1, 2}, members_of({0, 1, 2})); },
      5'000'000));
  const std::uint64_t views_before =
      host(2).endpoint(gid)->stats().views_installed;

  // p2 misses three ORDERED; the sequencer's next heartbeat exposes the
  // gap, p2 NACKs, and the sequencer retransmits from its log.
  net_->set_link_fault(node(0), node(2), sim::LinkFault{.blocked = true});
  for (std::uint8_t m = 0; m < 3; ++m) host(0).send(gid, payload(m));
  run_for(20'000);
  net_->clear_link_fault(node(0), node(2));
  ASSERT_EQ(user(1).total_delivered(gid), 3u);
  ASSERT_EQ(user(2).total_delivered(gid), 0u);

  ASSERT_TRUE(
      run_until([&] { return user(2).total_delivered(gid) == 3; }, 5'000'000));
  const GroupEndpoint* ep = host(2).endpoint(gid);
  EXPECT_GT(ep->stats().nacks_sent, 0u);
  EXPECT_EQ(ep->stats().views_installed, views_before);  // no flush needed
  EXPECT_EQ(user(2).log(gid).epochs.back().delivered,
            user(1).log(gid).epochs.back().delivered);
}

TEST_F(VsyncStabilityTest, OrderedTrafficSuppressesSequencerHeartbeats) {
  build(2);
  const HwgId gid = host(0).allocate_group_id();
  host(0).create_group(gid, user(0));
  host(1).join_group(gid, MemberSet{pid(0)}, user(1));
  ASSERT_TRUE(run_until(
      [&] { return converged(gid, {0, 1}, members_of({0, 1})); },
      5'000'000));

  // Steady traffic from the sequencer (process 0 is the smallest member):
  // every ORDERED it multicasts feeds the failure detector and carries the
  // stability floor, so no member may get suspected...
  for (int m = 0; m < 40; ++m) {
    host(0).send(gid, payload(static_cast<std::uint8_t>(m)));
    run_for(50'000);  // 2s total — far beyond suspect_timeout_us
  }
  EXPECT_TRUE(host(0).endpoint(gid)->suspected().empty());
  EXPECT_TRUE(host(1).endpoint(gid)->suspected().empty());
  EXPECT_TRUE(converged(gid, {0, 1}, members_of({0, 1})));
}

}  // namespace
}  // namespace plwg::vsync::testing
