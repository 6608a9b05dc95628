// FileDurableStore (runtime/durable_file.h) — the file-backed NVRAM model
// behind the chaos harness (ctest label: chaos):
//
//  - serialize/parse round-trips and strict rejection of every torn or
//    garbled variant of a valid image (sweep over all byte positions);
//  - the dual-image commit: after a corrupt store.img the store falls back
//    to store.prev instead of booting empty, and generations stay
//    monotonic across reopen;
//  - World integration: a process whose durable store is file-backed
//    survives crash/restart across *separate store instances* (the real
//    kill -9 path, minus the process boundary);
//  - USIG counter-then-send: a sealed counter written through set_nvram
//    continues after "power loss", while the volatile variant rewinds —
//    the PR-4 negative experiment against real files.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "runtime/durable_file.h"
#include "sim/adversaries.h"
#include "sim/world.h"
#include "trusted/usig.h"
#include "test_util.h"

namespace unidir {
namespace {

using runtime::FileDurableStore;

std::filesystem::path fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

Bytes slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void spew(const std::filesystem::path& p, const Bytes& data) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << p;
}

TEST(DurableFileImage, SerializeParseRoundTrip) {
  std::map<std::string, Bytes> entries;
  entries["minbft/state"] = bytes_of("some protocol image");
  entries["usig/sealed"] = bytes_of("sealed counter");
  entries["empty"] = Bytes{};
  const Bytes image = FileDurableStore::serialize_image(entries, 42);

  std::uint64_t gen = 0;
  const auto parsed = FileDurableStore::parse_image(image, &gen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, entries);
  EXPECT_EQ(gen, 42u);
}

TEST(DurableFileImage, EmptyImageRoundTripsAndTrailingGarbageRejects) {
  const Bytes image = FileDurableStore::serialize_image({}, 1);
  EXPECT_TRUE(FileDurableStore::parse_image(image).has_value());

  Bytes extra = image;
  extra.push_back(0);
  EXPECT_FALSE(FileDurableStore::parse_image(extra).has_value())
      << "trailing garbage must reject the whole image";
}

// The heart of the torn-write story: every possible truncation and every
// possible single-byte garble of a valid image must be rejected by the
// strict parser — no partial maps, no throws.
TEST(DurableFileImage, EveryTruncationAndGarbleIsRejected) {
  std::map<std::string, Bytes> entries;
  entries["a"] = bytes_of("alpha");
  entries["b"] = bytes_of("beta");
  entries["key/with/slashes"] = bytes_of("value value value");
  const Bytes image = FileDurableStore::serialize_image(entries, 7);
  ASSERT_TRUE(FileDurableStore::parse_image(image).has_value());

  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const Bytes torn(image.begin(),
                     image.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(FileDurableStore::parse_image(torn).has_value())
        << "image truncated to " << cut << " bytes parsed";
  }
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0xff}}) {
      Bytes garbled = image;
      garbled[pos] ^= flip;
      // The trailer CRC covers every preceding byte (and a flipped trailer
      // no longer matches them), so NO single-byte flip may parse.
      EXPECT_FALSE(FileDurableStore::parse_image(garbled).has_value())
          << "image with byte " << pos << " ^ " << int(flip) << " parsed";
    }
  }
}

TEST(DurableFileStore, FreshDirectoryStartsEmptyAndPersistsAcrossReopen) {
  const auto dir = fresh_dir("durable_fresh");
  {
    FileDurableStore store(dir);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.stats().recovered);
    EXPECT_EQ(store.generation(), 0u);
    store.put("k1", bytes_of("v1"));
    store.put_value<std::uint64_t>("count", 9);
    EXPECT_EQ(store.generation(), 2u);
    EXPECT_EQ(store.stats().commits, 2u);
  }
  FileDurableStore reopened(dir);
  EXPECT_TRUE(reopened.stats().recovered);
  EXPECT_FALSE(reopened.stats().loaded_fallback);
  EXPECT_EQ(reopened.generation(), 2u);
  ASSERT_NE(reopened.get("k1"), nullptr);
  EXPECT_EQ(*reopened.get("k1"), bytes_of("v1"));
  EXPECT_EQ(reopened.get_value<std::uint64_t>("count"),
            std::optional<std::uint64_t>{9});
}

TEST(DurableFileStore, EraseAndClearPersist) {
  const auto dir = fresh_dir("durable_erase");
  {
    FileDurableStore store(dir);
    store.put("keep", bytes_of("x"));
    store.put("drop", bytes_of("y"));
    store.erase("drop");
  }
  {
    FileDurableStore reopened(dir);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_TRUE(reopened.contains("keep"));
    EXPECT_FALSE(reopened.contains("drop"));
    reopened.clear();
  }
  FileDurableStore empty(dir);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.stats().recovered) << "an empty image is still an image";
}

// Sweep torn writes at the FILE level: for every truncation point of
// store.img, a fresh open must land on the previous good image (store.prev
// present) — never a partial state, never a throw.
TEST(DurableFileStore, TornImageFallsBackToPreviousGoodImage) {
  const auto dir = fresh_dir("durable_torn");
  {
    FileDurableStore store(dir);
    store.put("gen1", bytes_of("old"));   // commit 1 -> store.img
    store.put("gen2", bytes_of("new"));   // commit 2 -> rotates 1 to prev
  }
  const Bytes good_img = slurp(dir / "store.img");
  const Bytes good_prev = slurp(dir / "store.prev");
  ASSERT_FALSE(good_img.empty());
  ASSERT_FALSE(good_prev.empty());

  for (std::size_t cut = 0; cut < good_img.size(); ++cut) {
    spew(dir / "store.img",
         Bytes(good_img.begin(),
               good_img.begin() + static_cast<std::ptrdiff_t>(cut)));
    FileDurableStore store(dir);
    EXPECT_TRUE(store.stats().loaded_fallback) << "cut=" << cut;
    EXPECT_GE(store.stats().images_rejected, 1u) << "cut=" << cut;
    EXPECT_EQ(store.generation(), 1u) << "cut=" << cut;
    EXPECT_EQ(store.size(), 1u) << "cut=" << cut;
    EXPECT_TRUE(store.contains("gen1")) << "cut=" << cut;
    EXPECT_FALSE(store.contains("gen2"))
        << "cut=" << cut << ": partial new state leaked through";
  }
  // Restore and confirm the sweep left the directory usable.
  spew(dir / "store.img", good_img);
  FileDurableStore store(dir);
  EXPECT_FALSE(store.stats().loaded_fallback);
  EXPECT_EQ(store.generation(), 2u);
}

TEST(DurableFileStore, BothImagesCorruptBootsCleanlyEmpty) {
  const auto dir = fresh_dir("durable_both_bad");
  {
    FileDurableStore store(dir);
    store.put("k", bytes_of("v"));
    store.put("k2", bytes_of("v2"));
  }
  spew(dir / "store.img", bytes_of("not an image at all"));
  spew(dir / "store.prev", Bytes{0xde, 0xad});
  FileDurableStore store(dir);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.stats().recovered);
  EXPECT_EQ(store.stats().images_rejected, 2u);
  // A store that lost everything must still be able to move forward.
  store.put("fresh", bytes_of("start"));
  FileDurableStore reopened(dir);
  EXPECT_TRUE(reopened.contains("fresh"));
}

TEST(DurableFileStore, HigherGenerationImageWinsRegardlessOfFilename) {
  // If a crash lands between the two renames, store.prev can briefly hold
  // the NEWEST image while store.img holds the older one (or none). The
  // opener must pick by generation, not by name.
  const auto dir = fresh_dir("durable_genwins");
  std::filesystem::create_directories(dir);
  std::map<std::string, Bytes> older, newer;
  older["k"] = bytes_of("old");
  newer["k"] = bytes_of("new");
  spew(dir / "store.img", FileDurableStore::serialize_image(older, 3));
  spew(dir / "store.prev", FileDurableStore::serialize_image(newer, 4));
  FileDurableStore store(dir);
  EXPECT_EQ(store.generation(), 4u);
  ASSERT_NE(store.get("k"), nullptr);
  EXPECT_EQ(*store.get("k"), bytes_of("new"));
}

TEST(DurableFileStore, EveryCommitLeavesTwoIndependentlyValidImages) {
  // The atomicity argument rests on this invariant: at any instant after
  // the second commit, BOTH files on disk parse as complete images, so any
  // kill -9 between syscalls leaves at least one good state.
  const auto dir = fresh_dir("durable_invariant");
  FileDurableStore store(dir);
  for (int k = 0; k < 5; ++k) {
    store.put("key" + std::to_string(k), bytes_of("value"));
    EXPECT_TRUE(
        FileDurableStore::parse_image(slurp(dir / "store.img")).has_value())
        << "after commit " << k + 1;
    if (k >= 1) {
      EXPECT_TRUE(
          FileDurableStore::parse_image(slurp(dir / "store.prev")).has_value())
          << "after commit " << k + 1;
    }
  }
}

// ---- World integration -----------------------------------------------------------

TEST(DurableFileWorld, InstalledFileStoreSurvivesCrashRestart) {
  const auto dir = fresh_dir("durable_world");
  struct Counter final : sim::Process {
    int recovered_from = -1;

   protected:
    void on_start() override {
      world().durable(id()).put_value<std::uint64_t>("count", 7);
    }
    void on_recover(sim::DurableStore& durable) override {
      if (const auto v = durable.get_value<std::uint64_t>("count"))
        recovered_from = static_cast<int>(*v);
    }
  };
  {
    sim::World world(1, std::make_unique<sim::ImmediateAdversary>());
    auto& p = world.spawn<Counter>();
    world.install_durable(p.id(), std::make_unique<FileDurableStore>(dir));
    world.start();
    world.run_to_quiescence();
    world.crash(p.id());
    world.restart(p.id());
    EXPECT_EQ(p.recovered_from, 7) << "in-process restart lost the record";
  }
  // The kill -9 shape: a brand-new World and store instance over the same
  // directory boots the process straight into on_recover.
  sim::World world2(2, std::make_unique<sim::ImmediateAdversary>());
  auto& p2 = world2.spawn<Counter>();
  world2.install_durable(p2.id(), std::make_unique<FileDurableStore>(dir));
  world2.boot_recovering(p2.id());
  world2.start();
  world2.run_to_quiescence();
  EXPECT_EQ(p2.recovered_from, 7) << "cross-process restart lost the record";
  EXPECT_EQ(world2.metrics().counter_value("fault.recovery_boots"), 1u);
}

// ---- USIG write-through ----------------------------------------------------------

TEST(DurableFileUsig, SealedCounterWrittenThroughNvramSurvivesPowerLoss) {
  const auto dir = fresh_dir("durable_usig");
  crypto::KeyRegistry keys;
  trusted::UsigEnclave usig(keys);
  {
    FileDurableStore store(dir);
    usig.set_nvram([&store](const Bytes& sealed) {
      store.put("usig/sealed", sealed);
    });
    EXPECT_EQ(usig.create_ui(bytes_of("m1")).counter, 1u);
    EXPECT_EQ(usig.create_ui(bytes_of("m2")).counter, 2u);
  }
  // Power loss: the enclave's volatile counter rewinds, then the restart
  // path reloads the sealed blob from disk.
  usig.reset_for_power_loss();
  FileDurableStore store(dir);
  const Bytes* sealed = store.get("usig/sealed");
  ASSERT_NE(sealed, nullptr);
  usig.load_state(*sealed);
  // The restarted enclave writes through the reopened store; the sink set
  // above captured the store that went out of scope.
  usig.set_nvram([&store](const Bytes& blob) {
    store.put("usig/sealed", blob);
  });
  const auto ui = usig.create_ui(bytes_of("m3"));
  EXPECT_EQ(ui.counter, 3u) << "restored counter must continue, not rewind";
  EXPECT_TRUE(trusted::UsigEnclave::verify_ui(keys, usig.key(), ui,
                                              bytes_of("m3")));
  // Sealed counter 3 reached disk: a fresh store over the directory sees it.
  const FileDurableStore reread(dir);
  const Bytes* on_disk = reread.get("usig/sealed");
  ASSERT_NE(on_disk, nullptr);
  EXPECT_EQ(serde::decode<SeqNum>(*on_disk), 3u);
}

TEST(DurableFileUsig, VolatileCounterRewindsAfterPowerLoss) {
  // The negative control: without the nvram sink nothing reaches disk, so
  // a power loss re-issues counter 1 for a different message — the
  // equivocation the durable path exists to prevent.
  crypto::KeyRegistry keys;
  trusted::UsigEnclave usig(keys);
  const auto before = usig.create_ui(bytes_of("original"));
  usig.reset_for_power_loss();
  const auto after = usig.create_ui(bytes_of("conflicting"));
  EXPECT_EQ(after.counter, before.counter);
  EXPECT_TRUE(trusted::UsigEnclave::verify_ui(keys, usig.key(), before,
                                              bytes_of("original")));
  EXPECT_TRUE(trusted::UsigEnclave::verify_ui(keys, usig.key(), after,
                                              bytes_of("conflicting")));
}

}  // namespace
}  // namespace unidir
