#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/serde.h"
#include "crypto/signature.h"

namespace unidir::crypto {
namespace {

TEST(Signature, SignVerifyRoundTrip) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("broadcast (1, m)");
  const Signature sig = signer.sign(msg);
  EXPECT_TRUE(registry.verify(sig, msg));
}

TEST(Signature, RejectsTamperedMessage) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Signature sig = signer.sign(bytes_of("value v"));
  EXPECT_FALSE(registry.verify(sig, bytes_of("value w")));
}

TEST(Signature, RejectsTamperedMac) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("value v");
  Signature sig = signer.sign(msg);
  sig.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, RejectsWrongKeyClaim) {
  // A Byzantine process relabelling its signature as another's must fail:
  // the mac was computed under a different secret.
  KeyRegistry registry;
  const Signer alice = registry.generate_key();
  const Signer bob = registry.generate_key();
  const Bytes msg = bytes_of("equivocation attempt");
  Signature sig = alice.sign(msg);
  sig.key = bob.key();
  EXPECT_FALSE(registry.verify(sig, msg));
}

TEST(Signature, RejectsUnknownKey) {
  KeyRegistry registry;
  Signature sig;
  sig.key = 999;
  sig.mac = {};
  EXPECT_FALSE(registry.verify(sig, bytes_of("m")));
}

TEST(Signature, DistinctKeysProduceDistinctSignatures) {
  KeyRegistry registry;
  const Signer a = registry.generate_key();
  const Signer b = registry.generate_key();
  EXPECT_NE(a.key(), b.key());
  const Bytes msg = bytes_of("m");
  EXPECT_NE(a.sign(msg).mac, b.sign(msg).mac);
}

TEST(Signature, TransferableAcrossVerifiers) {
  // Anyone holding the registry can verify — the "transferable" property.
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("forwarded proof");
  const Signature sig = signer.sign(msg);
  // Simulate a chain of forwards: serialize, parse, verify.
  const Bytes wire = serde::encode(sig);
  const auto parsed = serde::decode<Signature>(wire);
  EXPECT_EQ(parsed, sig);
  EXPECT_TRUE(registry.verify(parsed, msg));
}

TEST(Signature, NullSignerThrows) {
  const Signer s;
  EXPECT_FALSE(s.valid());
  EXPECT_THROW((void)s.sign(bytes_of("m")), std::invalid_argument);
}

TEST(Signature, SerdeRoundTrip) {
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Signature sig = signer.sign(bytes_of("x"));
  EXPECT_EQ(serde::decode<Signature>(serde::encode(sig)), sig);
}

TEST(Signature, DeterministicAcrossRegistriesWithSameHistory) {
  // Whole-world reproducibility: two registries that generate keys in the
  // same order produce identical signatures.
  KeyRegistry r1;
  KeyRegistry r2;
  const Signer s1 = r1.generate_key();
  const Signer s2 = r2.generate_key();
  const Bytes msg = bytes_of("replay");
  EXPECT_EQ(s1.sign(msg), s2.sign(msg));
}

TEST(Signature, MemoComputesEachMacOnce) {
  // A twin registry derives the same key, so its signature verifies here
  // without sign() having planted a memo entry: the first verify computes
  // the MAC and the repeats are answered from the memo.
  KeyRegistry verifier;
  KeyRegistry twin;
  (void)verifier.generate_key();
  const Signer signer = twin.generate_key();
  const Bytes msg = bytes_of("the same message, many times");
  const Signature sig = signer.sign(msg);
  const std::uint64_t macs_before = verifier.verify_stats().macs;
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(verifier.verify(sig, msg));
  EXPECT_EQ(verifier.verify_stats().verifies, 6u);
  EXPECT_EQ(verifier.verify_stats().macs, macs_before + 1);
  EXPECT_EQ(verifier.verify_stats().memo_hits, 5u);

  // Signing memoizes too: verifying the signer's own signature costs no MAC.
  const std::uint64_t twin_macs = twin.verify_stats().macs;
  EXPECT_TRUE(twin.verify(sig, msg));
  EXPECT_EQ(twin.verify_stats().macs, twin_macs);
}

TEST(Signature, MemoStoresMacsNotVerdicts) {
  // sign() plants the true MAC in the memo. A tampered signature over the
  // same message is answered from that entry, and still fails: the memo
  // holds the MAC to compare against, not a cached "valid".
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  const Bytes msg = bytes_of("memoized message");
  const Signature sig = signer.sign(msg);
  const VerifyStats before = registry.verify_stats();
  Signature forged = sig;
  forged.mac[31] ^= 0x80;
  EXPECT_FALSE(registry.verify(forged, msg));
  EXPECT_TRUE(registry.verify(sig, msg));
  EXPECT_EQ(registry.verify_stats().macs, before.macs);
  EXPECT_EQ(registry.verify_stats().memo_hits, before.memo_hits + 2);
}

TEST(Signature, MemoEvictionRecomputesAndStaysCorrect) {
  // The memo is bounded: with more distinct messages than slots, some
  // entries are evicted, and re-verifying them recomputes the MAC. Every
  // verdict stays what it would be without a memo.
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  constexpr int kMessages = 3000;  // well past the memo's slot count
  std::vector<Bytes> msgs;
  std::vector<Signature> sigs;
  for (int i = 0; i < kMessages; ++i) {
    msgs.push_back(bytes_of("message #" + std::to_string(i)));
    sigs.push_back(signer.sign(msgs.back()));
  }
  const VerifyStats before = registry.verify_stats();
  for (int i = 0; i < kMessages; ++i)
    ASSERT_TRUE(registry.verify(sigs[static_cast<std::size_t>(i)],
                                msgs[static_cast<std::size_t>(i)]))
        << "message " << i;
  const VerifyStats after = registry.verify_stats();
  EXPECT_GT(after.macs, before.macs);
  EXPECT_EQ((after.macs - before.macs) + (after.memo_hits - before.memo_hits),
            static_cast<std::uint64_t>(kMessages));
  Signature forged = sigs.front();
  forged.mac[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(forged, msgs.front()));
}

TEST(Signature, MemoSeparatesKeysForTheSameMessage) {
  // Two keys sign one message: two memo entries. A signature relabelled to
  // the other key must not be answered from its own key's entry.
  KeyRegistry registry;
  const Signer alice = registry.generate_key();
  const Signer bob = registry.generate_key();
  const Bytes msg = bytes_of("one message, two signers");
  const Signature sa = alice.sign(msg);
  const Signature sb = bob.sign(msg);
  const std::uint64_t macs = registry.verify_stats().macs;
  EXPECT_TRUE(registry.verify(sa, msg));
  EXPECT_TRUE(registry.verify(sb, msg));
  Signature relabelled = sa;
  relabelled.key = bob.key();
  EXPECT_FALSE(registry.verify(relabelled, msg));
  EXPECT_EQ(registry.verify_stats().macs, macs);
}

/// fingerprint64's running state after the first `words` aligned 8-byte
/// words of `data`: its seed and word loop, without the tail or finalizer.
std::uint64_t fingerprint_state(const Bytes& data, std::size_t words) {
  std::uint64_t h =
      0xCBF29CE484222325ULL ^ (data.size() * 0x9E3779B97F4A7C15ULL);
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t w;
    std::memcpy(&w, data.data() + 8 * i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  return h;
}

TEST(Signature, MemoRejectsAForgedFingerprintCollision) {
  // fingerprint64 is invertible word by word, so a peer can solve for a
  // different message of the same length and fingerprint as an honest one.
  // Presenting the honest MAC with it must fail although the honest
  // message's entry sits in the memo.
  KeyRegistry registry;
  const Signer signer = registry.generate_key();
  Bytes original(48);
  for (std::size_t i = 0; i < original.size(); ++i)
    original[i] = static_cast<std::uint8_t>(i);
  const Signature sig = signer.sign(original);

  Bytes forged = original;
  for (std::size_t i = 0; i < 40; ++i) forged[i] ^= 0x5A;  // five words
  // Solve the last word so the running states meet again.
  std::uint64_t last;
  std::memcpy(&last, original.data() + 40, 8);
  last ^= fingerprint_state(original, 5) ^ fingerprint_state(forged, 5);
  std::memcpy(forged.data() + 40, &last, 8);
  ASSERT_NE(forged, original);
  ASSERT_EQ(fingerprint64(forged), fingerprint64(original));

  EXPECT_TRUE(registry.verify(sig, original));
  EXPECT_FALSE(registry.verify(sig, forged));
}

}  // namespace
}  // namespace unidir::crypto
