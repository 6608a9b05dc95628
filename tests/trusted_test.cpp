#include <gtest/gtest.h>

#include "trusted/a2m.h"
#include "trusted/a2m_from_trinc.h"
#include "trusted/sgx.h"
#include "trusted/trinc.h"
#include "trusted/usig.h"

namespace unidir::trusted {
namespace {

// ---- TrInc ---------------------------------------------------------------------

class TrincFixture : public ::testing::Test {
 protected:
  crypto::KeyRegistry keys;
  TrincAuthority authority{keys};
};

TEST_F(TrincFixture, AttestAndCheck) {
  Trinket t = authority.make_trinket(0);
  const auto a = t.attest(1, bytes_of("m"));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->prev, 0u);
  EXPECT_EQ(a->seq, 1u);
  EXPECT_TRUE(authority.check(*a, 0));
}

TEST_F(TrincFixture, CounterReuseRefused) {
  Trinket t = authority.make_trinket(0);
  ASSERT_TRUE(t.attest(5, bytes_of("m")).has_value());
  EXPECT_FALSE(t.attest(5, bytes_of("other")).has_value());
  EXPECT_FALSE(t.attest(4, bytes_of("other")).has_value());
  EXPECT_EQ(t.last_used(), 5u);
}

TEST_F(TrincFixture, SkippingForwardAllowedAndPrevTracksGaps) {
  Trinket t = authority.make_trinket(0);
  ASSERT_TRUE(t.attest(2, bytes_of("a")).has_value());
  const auto b = t.attest(10, bytes_of("b"));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->prev, 2u);  // receivers can detect the gap
  EXPECT_EQ(b->seq, 10u);
}

TEST_F(TrincFixture, NonEquivocationNoTwoMessagesOneCounter) {
  // The defining property: once (c, m) is attested, no attestation for
  // (c, m') can ever exist — there is simply no code path that makes one.
  Trinket t = authority.make_trinket(0);
  const auto first = t.attest(3, bytes_of("m"));
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(t.attest(3, bytes_of("m" + std::to_string(i))).has_value());
}

TEST_F(TrincFixture, CheckRejectsWrongOwner) {
  Trinket t0 = authority.make_trinket(0);
  (void)authority.make_trinket(1);
  const auto a = t0.attest(1, bytes_of("m"));
  EXPECT_FALSE(authority.check(*a, 1));
}

TEST_F(TrincFixture, CheckRejectsTampering) {
  Trinket t = authority.make_trinket(0);
  auto a = *t.attest(1, bytes_of("m"));
  auto tampered = a;
  tampered.message = bytes_of("m'");
  EXPECT_FALSE(authority.check(tampered, 0));
  tampered = a;
  tampered.seq = 2;
  EXPECT_FALSE(authority.check(tampered, 0));
  tampered = a;
  tampered.prev = 7;
  EXPECT_FALSE(authority.check(tampered, 0));
}

TEST_F(TrincFixture, CheckRejectsUnissuedDevice) {
  TrincAttestation a;
  a.owner = 9;
  EXPECT_FALSE(authority.check(a, 9));
}

TEST_F(TrincFixture, CountersAreIndependent) {
  Trinket t = authority.make_trinket(0);
  ASSERT_TRUE(t.attest_on(1, 5, bytes_of("a")).has_value());
  ASSERT_TRUE(t.attest_on(2, 1, bytes_of("b")).has_value());
  EXPECT_FALSE(t.attest_on(1, 5, bytes_of("x")).has_value());
  ASSERT_TRUE(t.attest_on(2, 2, bytes_of("c")).has_value());
  EXPECT_EQ(t.last_used(1), 5u);
  EXPECT_EQ(t.last_used(2), 2u);
  EXPECT_EQ(t.last_used(0), 0u);
}

TEST_F(TrincFixture, OneTrinketPerOwner) {
  (void)authority.make_trinket(0);
  EXPECT_THROW((void)authority.make_trinket(0), std::invalid_argument);
}

TEST_F(TrincFixture, AttestationWireRoundTrip) {
  Trinket t = authority.make_trinket(0);
  const auto a = *t.attest(1, bytes_of("m"));
  const auto parsed = serde::decode<TrincAttestation>(serde::encode(a));
  EXPECT_EQ(parsed, a);
  EXPECT_TRUE(authority.check(parsed, 0));
}

// ---- A2M ----------------------------------------------------------------------

class A2mFixture : public ::testing::Test {
 protected:
  crypto::KeyRegistry keys;
  A2mAuthority authority{keys};
};

TEST_F(A2mFixture, AppendLookupEnd) {
  A2m dev = authority.make_device(0);
  const LogId log = dev.create_log();
  EXPECT_EQ(dev.append(log, bytes_of("x")), std::optional<SeqNum>{1});
  EXPECT_EQ(dev.append(log, bytes_of("y")), std::optional<SeqNum>{2});

  const auto lk = dev.lookup(log, 1, bytes_of("nonce"));
  ASSERT_TRUE(lk.has_value());
  EXPECT_EQ(lk->value, bytes_of("x"));
  EXPECT_EQ(lk->nonce, bytes_of("nonce"));
  EXPECT_TRUE(authority.check(*lk, 0));

  const auto e = dev.end(log, bytes_of("n2"));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 2u);
  EXPECT_EQ(e->value, bytes_of("y"));
  EXPECT_TRUE(authority.check(*e, 0));
}

TEST_F(A2mFixture, LookupOutOfRangeFails) {
  A2m dev = authority.make_device(0);
  const LogId log = dev.create_log();
  EXPECT_FALSE(dev.lookup(log, 1, {}).has_value());
  (void)dev.append(log, bytes_of("x"));
  EXPECT_FALSE(dev.lookup(log, 0, {}).has_value());
  EXPECT_FALSE(dev.lookup(log, 2, {}).has_value());
}

TEST_F(A2mFixture, UnknownLogFails) {
  A2m dev = authority.make_device(0);
  EXPECT_FALSE(dev.append(99, bytes_of("x")).has_value());
  EXPECT_FALSE(dev.lookup(99, 1, {}).has_value());
  EXPECT_FALSE(dev.end(99, {}).has_value());
  EXPECT_FALSE(dev.length(99).has_value());
}

TEST_F(A2mFixture, EmptyLogEndAttestsZero) {
  A2m dev = authority.make_device(0);
  const LogId log = dev.create_log();
  const auto e = dev.end(log, bytes_of("z"));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 0u);
  EXPECT_TRUE(e->value.empty());
  EXPECT_TRUE(authority.check(*e, 0));
}

TEST_F(A2mFixture, PastEntriesImmutable) {
  // There is no mutation API; appends never change earlier attestations.
  A2m dev = authority.make_device(0);
  const LogId log = dev.create_log();
  (void)dev.append(log, bytes_of("first"));
  const auto before = dev.lookup(log, 1, bytes_of("n"));
  for (int i = 0; i < 10; ++i) (void)dev.append(log, bytes_of("later"));
  const auto after = dev.lookup(log, 1, bytes_of("n"));
  ASSERT_TRUE(before && after);
  EXPECT_EQ(before->value, after->value);
  EXPECT_TRUE(authority.check(*after, 0));
}

TEST_F(A2mFixture, MultipleLogsIndependent) {
  A2m dev = authority.make_device(0);
  const LogId a = dev.create_log();
  const LogId b = dev.create_log();
  (void)dev.append(a, bytes_of("in-a"));
  EXPECT_EQ(dev.length(a), std::optional<SeqNum>{1});
  EXPECT_EQ(dev.length(b), std::optional<SeqNum>{0});
}

TEST_F(A2mFixture, NonceBoundIntoAttestation) {
  A2m dev = authority.make_device(0);
  const LogId log = dev.create_log();
  (void)dev.append(log, bytes_of("x"));
  auto a = *dev.lookup(log, 1, bytes_of("fresh"));
  a.nonce = bytes_of("replayed");  // replay under a different challenge
  EXPECT_FALSE(authority.check(a, 0));
}

TEST_F(A2mFixture, CrossDeviceCheckFails) {
  A2m d0 = authority.make_device(0);
  (void)authority.make_device(1);
  const LogId log = d0.create_log();
  (void)d0.append(log, bytes_of("x"));
  const auto a = *d0.lookup(log, 1, {});
  EXPECT_FALSE(authority.check(a, 1));
}

TEST_F(A2mFixture, AttestationWireRoundTrip) {
  A2m dev = authority.make_device(0);
  const LogId log = dev.create_log();
  (void)dev.append(log, bytes_of("x"));
  const auto a = *dev.lookup(log, 1, bytes_of("n"));
  const auto parsed = serde::decode<A2mAttestation>(serde::encode(a));
  EXPECT_EQ(parsed, a);
  EXPECT_TRUE(authority.check(parsed, 0));
}

// ---- A2M from TrInc (Levin et al. reduction) -----------------------------------

class A2mFromTrincFixture : public ::testing::Test {
 protected:
  crypto::KeyRegistry keys;
  TrincAuthority authority{keys};
};

TEST_F(A2mFromTrincFixture, BehavesLikeA2m) {
  A2mFromTrinc dev(authority.make_trinket(0));
  const LogId log = dev.create_log();
  EXPECT_EQ(dev.append(log, bytes_of("x")), std::optional<SeqNum>{1});
  EXPECT_EQ(dev.append(log, bytes_of("y")), std::optional<SeqNum>{2});

  const auto lk = dev.lookup(log, 1, bytes_of("n"));
  ASSERT_TRUE(lk.has_value());
  EXPECT_EQ(lk->value, bytes_of("x"));
  EXPECT_TRUE(A2mFromTrinc::check(authority, *lk, 0));

  const auto e = dev.end(log, bytes_of("n"));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 2u);
  EXPECT_EQ(e->value, bytes_of("y"));
  EXPECT_TRUE(A2mFromTrinc::check(authority, *e, 0));
}

TEST_F(A2mFromTrincFixture, ValueSubstitutionDetected) {
  // The untrusted storage is compromised: the host rewrites an entry. The
  // TrInc attestation no longer matches — append-only preserved.
  A2mFromTrinc dev(authority.make_trinket(0));
  const LogId log = dev.create_log();
  (void)dev.append(log, bytes_of("honest"));
  auto a = *dev.lookup(log, 1, {});
  a.value = bytes_of("rewritten");
  EXPECT_FALSE(A2mFromTrinc::check(authority, a, 0));
}

TEST_F(A2mFromTrincFixture, SeqRelabelDetected) {
  A2mFromTrinc dev(authority.make_trinket(0));
  const LogId log = dev.create_log();
  (void)dev.append(log, bytes_of("x"));
  (void)dev.append(log, bytes_of("y"));
  auto a = *dev.lookup(log, 1, {});
  a.seq = 2;  // claim the entry sits at a different index
  EXPECT_FALSE(A2mFromTrinc::check(authority, a, 0));
}

TEST_F(A2mFromTrincFixture, CrossLogRelabelDetected) {
  A2mFromTrinc dev(authority.make_trinket(0));
  const LogId la = dev.create_log();
  const LogId lb = dev.create_log();
  (void)dev.append(la, bytes_of("x"));
  (void)lb;
  auto a = *dev.lookup(la, 1, {});
  a.log = lb;
  EXPECT_FALSE(A2mFromTrinc::check(authority, a, 0));
}

TEST_F(A2mFromTrincFixture, MultipleLogsUseIndependentCounters) {
  A2mFromTrinc dev(authority.make_trinket(0));
  const LogId a = dev.create_log();
  const LogId b = dev.create_log();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(dev.append(a, bytes_of("a" + std::to_string(i))).has_value());
    ASSERT_TRUE(dev.append(b, bytes_of("b" + std::to_string(i))).has_value());
  }
  EXPECT_EQ(dev.length(a), std::optional<SeqNum>{3});
  EXPECT_EQ(dev.length(b), std::optional<SeqNum>{3});
  EXPECT_TRUE(A2mFromTrinc::check(authority, *dev.lookup(b, 2, {}), 0));
}

TEST_F(A2mFromTrincFixture, EmptyLogEnd) {
  A2mFromTrinc dev(authority.make_trinket(0));
  const LogId log = dev.create_log();
  const auto e = dev.end(log, {});
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->seq, 0u);
  EXPECT_TRUE(A2mFromTrinc::check(authority, *e, 0));
}

// ---- SGX enclave ----------------------------------------------------------------

TEST(SgxEnclave, ProgramRunsOverSealedState) {
  crypto::KeyRegistry keys;
  // A toy accumulator: state is a running total of input lengths.
  SgxEnclave enclave(
      keys,
      [](Bytes& state, const Bytes& input) {
        auto total = serde::decode<std::uint64_t>(state) + input.size();
        state = serde::encode(total);
        return serde::encode(total);
      },
      serde::encode(std::uint64_t{0}));
  EXPECT_EQ(serde::decode<std::uint64_t>(enclave.call(bytes_of("abc")).output),
            3u);
  EXPECT_EQ(serde::decode<std::uint64_t>(enclave.call(bytes_of("de")).output),
            5u);
}

TEST(SgxEnclave, OutputsAreAttested) {
  crypto::KeyRegistry keys;
  SgxEnclave enclave(
      keys, [](Bytes&, const Bytes& in) { return in; }, {});
  const SealedOutput out = enclave.call(bytes_of("echo"));
  EXPECT_TRUE(
      SgxEnclave::verify(keys, enclave.attestation_key(), out.output, out.sig));

  SealedOutput forged = out;
  forged.output = bytes_of("not echo");
  EXPECT_FALSE(SgxEnclave::verify(keys, enclave.attestation_key(),
                                  forged.output, forged.sig));
}

TEST(SgxEnclave, DistinctEnclavesDistinctKeys) {
  crypto::KeyRegistry keys;
  auto echo = [](Bytes&, const Bytes& in) { return in; };
  SgxEnclave a(keys, echo, {});
  SgxEnclave b(keys, echo, {});
  EXPECT_NE(a.attestation_key(), b.attestation_key());
  const SealedOutput out = a.call(bytes_of("m"));
  EXPECT_FALSE(
      SgxEnclave::verify(keys, b.attestation_key(), out.output, out.sig));
}

// ---- USIG -----------------------------------------------------------------------

TEST(Usig, CreateAndVerify) {
  crypto::KeyRegistry keys;
  UsigEnclave usig(keys);
  const Bytes msg = bytes_of("PREPARE v=0 s=1");
  const UniqueIdentifier ui = usig.create_ui(msg);
  EXPECT_EQ(ui.counter, 1u);
  EXPECT_TRUE(UsigEnclave::verify_ui(keys, usig.key(), ui, msg));
}

TEST(Usig, CountersAreSequential) {
  crypto::KeyRegistry keys;
  UsigEnclave usig(keys);
  for (SeqNum expected = 1; expected <= 20; ++expected)
    EXPECT_EQ(usig.create_ui(bytes_of("m")).counter, expected);
  EXPECT_EQ(usig.last_counter(), 20u);
}

TEST(Usig, VerifyBindsMessage) {
  crypto::KeyRegistry keys;
  UsigEnclave usig(keys);
  const UniqueIdentifier ui = usig.create_ui(bytes_of("real"));
  EXPECT_FALSE(UsigEnclave::verify_ui(keys, usig.key(), ui, bytes_of("fake")));
}

TEST(Usig, CounterRelabelDetected) {
  crypto::KeyRegistry keys;
  UsigEnclave usig(keys);
  const Bytes msg = bytes_of("m");
  UniqueIdentifier ui = usig.create_ui(msg);
  ui.counter = 7;  // claim a different counter value
  EXPECT_FALSE(UsigEnclave::verify_ui(keys, usig.key(), ui, msg));
}

TEST(Usig, CrossReplicaVerifyFails) {
  crypto::KeyRegistry keys;
  UsigEnclave u0(keys);
  UsigEnclave u1(keys);
  const Bytes msg = bytes_of("m");
  const UniqueIdentifier ui = u0.create_ui(msg);
  EXPECT_FALSE(UsigEnclave::verify_ui(keys, u1.key(), ui, msg));
}

TEST(Usig, NonEquivocationTwoMessagesNeverShareACounter) {
  crypto::KeyRegistry keys;
  UsigEnclave usig(keys);
  std::set<SeqNum> counters;
  for (int i = 0; i < 50; ++i) {
    const auto ui = usig.create_ui(bytes_of("m" + std::to_string(i)));
    EXPECT_TRUE(counters.insert(ui.counter).second)
        << "counter " << ui.counter << " reused";
  }
}

TEST(Usig, WireRoundTrip) {
  crypto::KeyRegistry keys;
  UsigEnclave usig(keys);
  const Bytes msg = bytes_of("m");
  const UniqueIdentifier ui = usig.create_ui(msg);
  const auto parsed = serde::decode<UniqueIdentifier>(serde::encode(ui));
  EXPECT_EQ(parsed, ui);
  EXPECT_TRUE(UsigEnclave::verify_ui(keys, usig.key(), parsed, msg));
}

}  // namespace
}  // namespace unidir::trusted
