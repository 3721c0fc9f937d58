// Recovery-subsystem tests: comm replay log, crash-rank resurrection with
// bitwise-identical re-execution, ABFT panel correction cross-checked
// against the injector's flip records, MultiRankError determinism and
// fault provenance, and scanAbnormal coordinate reporting.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "blas/abft.h"
#include "blas/scan.h"
#include "cli/commands.h"
#include "cli/options.h"
#include "core/hplai.h"
#include "fp16/half.h"
#include "gen/matgen.h"
#include "serve/json.h"
#include "simmpi/faults.h"
#include "simmpi/recovery.h"
#include "simmpi/runtime.h"

namespace hplmxp {
namespace {

using simmpi::FaultConfig;
using simmpi::FaultInjector;
using simmpi::FlipRecord;
using simmpi::RecoveryStats;
using simmpi::ReplayCounters;

// ---------------------------------------------------------------------------
// Comm replay log
// ---------------------------------------------------------------------------

TEST(ReplayLog, CountsOpsAndLogsRecvs) {
  simmpi::RunOptions opts;
  opts.replayLog = true;
  simmpi::run(2, [](simmpi::Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        double v = 10.0 * i;
        world.send(1, 7, &v, 1);
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        double v = 0.0;
        world.recv(0, 7, &v, 1);
        EXPECT_EQ(v, 10.0 * i);
      }
    }
    world.barrier();
    const ReplayCounters c0 = world.replayCounters(0);
    const ReplayCounters c1 = world.replayCounters(1);
    if (world.rank() == 0) {
      EXPECT_EQ(c0.sends, 5u);
      EXPECT_EQ(c0.barriers, 1u);
      EXPECT_EQ(c1.recvs, 5u);
    }
  }, opts);
}

TEST(ReplayLog, ReplayServesLoggedRecvsAndSwallowsSends) {
  simmpi::RunOptions opts;
  opts.replayLog = true;
  simmpi::run(2, [](simmpi::Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        double v = 3.0 + i;
        world.send(1, 9, &v, 1);
      }
      double ack = 0.0;
      world.recv(1, 10, &ack, 1);
      EXPECT_EQ(ack, 42.0);
    } else {
      const ReplayCounters start = world.replayCounters(1);
      double sum = 0.0;
      for (int i = 0; i < 4; ++i) {
        double v = 0.0;
        world.recv(0, 9, &v, 1);
        sum += v;
      }
      double ack = 42.0;
      world.send(0, 10, &ack, 1);
      const double liveSum = sum;

      // Rewind and re-execute the same ops: recvs come from the log, the
      // ack send is swallowed (rank 0 already got it).
      world.beginReplay(1, start);
      EXPECT_TRUE(world.replaying(1));
      sum = 0.0;
      for (int i = 0; i < 4; ++i) {
        double v = 0.0;
        world.recv(0, 9, &v, 1);
        sum += v;
      }
      world.send(0, 10, &ack, 1);
      EXPECT_FALSE(world.replaying(1));
      EXPECT_EQ(sum, liveSum);

      const simmpi::ReplayActivity a = world.replayActivity(1);
      EXPECT_EQ(a.recvsReplayed, 4u);
      EXPECT_EQ(a.sendsSuppressed, 1u);
    }
    world.barrier();
  }, opts);
}

TEST(ReplayLog, TrimBoundsTheLog) {
  simmpi::RunOptions opts;
  opts.replayLog = true;
  simmpi::run(2, [](simmpi::Comm& world) {
    if (world.rank() == 0) {
      std::vector<double> payload(64, 1.5);
      for (int i = 0; i < 8; ++i) {
        world.send(1, 3, payload.data(), 64);
      }
    } else {
      std::vector<double> payload(64);
      for (int i = 0; i < 8; ++i) {
        world.recv(0, 3, payload.data(), 64);
      }
      const simmpi::ReplayActivity before = world.replayActivity(1);
      EXPECT_EQ(before.logRecords, 8u);
      world.trimReplayLog(1, 6);  // keep only the last two records
      const simmpi::ReplayActivity after = world.replayActivity(1);
      EXPECT_EQ(after.logRecords, 2u);
      EXPECT_LT(after.logBytes, before.logBytes);
      EXPECT_EQ(after.logPeakBytes, before.logPeakBytes);
    }
    world.barrier();
  }, opts);
}

TEST(ReplayLog, CrashedRankResurrectsAtTheExactOp) {
  // Rank 1 crashes mid-exchange; catching the crash and replaying from the
  // start reproduces the fault-free result bitwise while rank 0 never
  // notices (its sends were delivered eagerly; the ack it waits for is
  // sent live after replay catches up).
  FaultConfig fc;
  fc.crashRank = 1;
  fc.crashAtOp = 3;
  auto inj = std::make_shared<FaultInjector>(fc, 2);
  simmpi::RunOptions opts;
  opts.faults = inj;
  opts.replayLog = true;
  double finalSum = 0.0;
  simmpi::run(2, [&](simmpi::Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < 6; ++i) {
        double v = 2.0 + i;
        world.send(1, 5, &v, 1);
      }
      double ack = 0.0;
      world.recv(1, 6, &ack, 1);
      EXPECT_EQ(ack, 27.0);  // sum of 2..7
    } else {
      const ReplayCounters start = world.replayCounters(1);
      double sum = 0.0;
      int i = 0;
      while (i < 6) {
        try {
          double v = 0.0;
          world.recv(0, 5, &v, 1);
          sum += v;
          ++i;
        } catch (const simmpi::InjectedCrashError&) {
          world.beginReplay(1, start);
          sum = 0.0;
          i = 0;
        }
      }
      world.send(0, 6, &sum, 1);
      finalSum = sum;
    }
    world.barrier();
  }, opts);
  EXPECT_EQ(finalSum, 27.0);
  EXPECT_EQ(inj->stats().crashes, 1u);  // one-shot crash latch
}

// ---------------------------------------------------------------------------
// Crash-rank recovery: bitwise-identical factorization runs
// ---------------------------------------------------------------------------

HplaiConfig recoveryConfig(index_t everyK) {
  HplaiConfig cfg;
  cfg.n = 192;
  cfg.b = 16;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.seed = 7321;
  cfg.lookahead = false;
  cfg.recovery.enabled = everyK > 0;
  if (everyK > 0) {
    cfg.recovery.checkpointEveryK = everyK;
  }
  return cfg;
}

struct RunOutput {
  HplaiResult result;
  std::vector<double> solution;
};

RunOutput runWith(const HplaiConfig& config,
                  std::shared_ptr<FaultInjector> faults) {
  RunOutput out;
  simmpi::RunOptions opts;
  opts.faults = std::move(faults);
  opts.replayLog = config.recovery.enabled;
  simmpi::run(config.worldSize(), [&](simmpi::Comm& world) {
    std::vector<double> local;
    HplaiResult r = runHplaiOnComm(world, config, &local);
    if (world.rank() == 0) {
      out.result = std::move(r);
      out.solution = std::move(local);
    }
  }, opts);
  return out;
}

void expectBitwiseEqual(const RunOutput& a, const RunOutput& b) {
  ASSERT_EQ(a.solution.size(), b.solution.size());
  for (std::size_t i = 0; i < a.solution.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.solution[i], &b.solution[i], sizeof(double)), 0)
        << "solution diverges at " << i << ": " << a.solution[i] << " vs "
        << b.solution[i];
  }
  EXPECT_EQ(a.result.residualInf, b.result.residualInf);
  EXPECT_EQ(a.result.irIterations, b.result.irIterations);
  EXPECT_TRUE(b.result.converged);
}

TEST(CrashRecovery, MidFactorizationCrashRecoversBitwise) {
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  ASSERT_TRUE(clean.result.converged);

  FaultConfig fc;
  fc.crashRank = 2;
  fc.crashAtOp = 35;  // mid-factorization: every rank spends ops 0-~45 in factor()
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(4);
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput recovered = runWith(cfg, inj);

  EXPECT_EQ(inj->stats().crashes, 1u);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 1u);
  EXPECT_GT(rep.checkpoints, 0u);
  EXPECT_GT(rep.recvsReplayed + rep.barriersSkipped + rep.sendsSuppressed,
            0u);
  expectBitwiseEqual(clean, recovered);
}

TEST(CrashRecovery, EveryCheckpointCadenceRecoversBitwise) {
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  ASSERT_TRUE(clean.result.converged);
  for (index_t everyK : {1, 3, 5, 12}) {
    FaultConfig fc;
    fc.crashRank = 1;
    fc.crashAtOp = 30;
    auto inj = std::make_shared<FaultInjector>(fc, 4);
    HplaiConfig cfg = recoveryConfig(everyK);
    cfg.recoveryStats = std::make_shared<RecoveryStats>();
    const RunOutput recovered = runWith(cfg, inj);
    EXPECT_EQ(inj->stats().crashes, 1u) << "everyK=" << everyK;
    EXPECT_EQ(
        simmpi::snapshotRecovery(*cfg.recoveryStats).resurrections, 1u)
        << "everyK=" << everyK;
    expectBitwiseEqual(clean, recovered);
  }
}

TEST(CrashRecovery, CrashOnRankZeroRecoversBitwise) {
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  FaultConfig fc;
  fc.crashRank = 0;
  fc.crashAtOp = 28;
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  const RunOutput recovered = runWith(recoveryConfig(2), inj);
  EXPECT_EQ(inj->stats().crashes, 1u);
  expectBitwiseEqual(clean, recovered);
}

TEST(CrashRecovery, FrequentCheckpointsBoundTheReplayLog) {
  // The replay log is trimmed at every checkpoint, so a tighter cadence
  // must strictly reduce its peak footprint.
  std::uint64_t peak[2] = {0, 0};
  int idx = 0;
  for (index_t everyK : {1, 12}) {
    HplaiConfig cfg = recoveryConfig(everyK);
    cfg.recoveryStats = std::make_shared<RecoveryStats>();
    (void)runWith(cfg, nullptr);
    peak[idx++] =
        simmpi::snapshotRecovery(*cfg.recoveryStats).replayLogPeakBytes;
  }
  EXPECT_GT(peak[0], 0u);
  EXPECT_LT(peak[0], peak[1]);
}

TEST(CrashRecovery, IncrementalCheckpointCopiesLessThanFull) {
  // Dirty-tile deltas: every generation stores only tiles touched since
  // the previous one; total raw bytes must be well below nSteps *
  // full-matrix, and the codec must shrink them further on the wire.
  HplaiConfig cfg = recoveryConfig(1);
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  (void)runWith(cfg, nullptr);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  const std::uint64_t localBytes = 96ull * 96ull * sizeof(float);  // per rank
  const std::uint64_t fullEveryTime = rep.checkpoints * localBytes;
  EXPECT_GT(rep.checkpointBytesCopied, 0u);
  EXPECT_LT(rep.checkpointBytesCopied, fullEveryTime);
  EXPECT_GT(rep.checkpointBytesStored, 0u);
  EXPECT_LT(rep.checkpointBytesStored, rep.checkpointBytesCopied);
}

TEST(CrashRecovery, UncompressedCheckpointsStillRecoverBitwise) {
  // recovery.compress off: raw XOR deltas, still chunked + CRC'd.
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  FaultConfig fc;
  fc.crashRank = 1;
  fc.crashAtOp = 30;
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(4);
  cfg.recovery.compressCheckpoints = false;
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput recovered = runWith(cfg, inj);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 1u);
  EXPECT_GE(rep.checkpointBytesStored, rep.checkpointBytesCopied);
  expectBitwiseEqual(clean, recovered);
}

// ---------------------------------------------------------------------------
// Multi-fault recovery: overlapping crashes and checkpoint corruption
// ---------------------------------------------------------------------------

TEST(MultiFault, TwoConcurrentRankCrashesRecoverBitwise) {
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  ASSERT_TRUE(clean.result.converged);
  FaultConfig fc;
  fc.crashRank = 3;
  fc.crashAtOp = 64;
  fc.crashRank2 = 1;
  fc.crashAtOp2 = 40;
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(4);
  cfg.abftPanels = true;  // matches the recover CLI: ABFT traffic
  cfg.abftGemm = true;    // shifts the comm-op stream the ops are calibrated to
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput recovered = runWith(cfg, inj);
  EXPECT_EQ(inj->stats().crashes, 2u);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 2u);
  expectBitwiseEqual(clean, recovered);
}

TEST(MultiFault, SecondCrashDuringReplayNestsAndRecoversBitwise) {
  // Rank 1 crashes live, resurrects, and crashes AGAIN two ops into its
  // replay: the nested resurrection rewinds once more while preserving
  // the original live-resume target.
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  FaultConfig fc;
  fc.crashRank = 1;
  fc.crashAtOp = 40;
  fc.replayCrashRank = 1;
  fc.replayCrashAtOp = 2;
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(4);
  cfg.abftPanels = true;  // matches the recover CLI: ABFT traffic
  cfg.abftGemm = true;    // shifts the comm-op stream the ops are calibrated to
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput recovered = runWith(cfg, inj);
  EXPECT_EQ(inj->stats().crashes, 2u);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 2u);
  EXPECT_EQ(rep.nestedResurrections, 1u);
  expectBitwiseEqual(clean, recovered);
}

TEST(MultiFault, CheckpointCorruptionFallsBackToIntactGeneration) {
  // The newest stored generation is bit-flipped; restore must detect the
  // CRC mismatch, discard it, and resurrect from the intact predecessor.
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  FaultConfig fc;
  fc.crashRank = 1;
  fc.crashAtOp = 30;
  fc.ckptCorruptRank = 1;
  fc.ckptCorruptOrdinal = 0;  // the generation the crash would restore
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(4);
  cfg.abftPanels = true;  // matches the recover CLI: ABFT traffic
  cfg.abftGemm = true;    // shifts the comm-op stream the ops are calibrated to
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput recovered = runWith(cfg, inj);
  EXPECT_EQ(inj->stats().checkpointCorruptions, 1u);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 1u);
  EXPECT_EQ(rep.checkpointCorruptionsDetected, 1u);
  EXPECT_GE(rep.generationsDiscarded, 1u);
  expectBitwiseEqual(clean, recovered);
}

TEST(MultiFault, TwoCrashesPlusCheckpointCorruptionRecoverBitwise) {
  // The acceptance gauntlet: two concurrent rank crashes and one injected
  // checkpoint corruption in a single run.
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  FaultConfig fc;
  fc.crashRank = 3;
  fc.crashAtOp = 64;
  fc.crashRank2 = 1;
  fc.crashAtOp2 = 40;
  fc.ckptCorruptRank = 3;
  fc.ckptCorruptOrdinal = 1;  // rank 3's newest generation at crash time
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(4);
  cfg.abftPanels = true;  // matches the recover CLI: ABFT traffic
  cfg.abftGemm = true;    // shifts the comm-op stream the ops are calibrated to
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput recovered = runWith(cfg, inj);
  EXPECT_EQ(inj->stats().crashes, 2u);
  EXPECT_EQ(inj->stats().checkpointCorruptions, 1u);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 2u);
  EXPECT_EQ(rep.checkpointCorruptionsDetected, 1u);
  EXPECT_GE(rep.generationsDiscarded, 1u);
  expectBitwiseEqual(clean, recovered);
}

TEST(MultiFault, RottedOldGenerationIsScrubbedAtNextAppend) {
  // Corrupt the FIRST matrix generation, then crash late enough that a
  // newer generation exists: restore-time fallback alone would have to
  // rewind past the replay floor. The scrub-on-append pass must instead
  // drop the rotted generation at the next checkpoint (folding its tiles
  // into the new one), so the late crash restores from a repaired chain.
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  FaultConfig fc;
  fc.crashRank = 2;
  fc.crashAtOp = 50;
  fc.ckptCorruptRank = 2;
  fc.ckptCorruptOrdinal = 0;  // rots before later generations are appended
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(4);
  cfg.abftPanels = true;  // matches the recover CLI: ABFT traffic
  cfg.abftGemm = true;    // shifts the comm-op stream the ops are calibrated to
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput recovered = runWith(cfg, inj);
  EXPECT_EQ(inj->stats().checkpointCorruptions, 1u);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 1u);
  EXPECT_EQ(rep.checkpointCorruptionsDetected, 1u);
  EXPECT_EQ(rep.generationsDiscarded, 1u);
  expectBitwiseEqual(clean, recovered);
}

TEST(MultiFault, MulticrashAndCkptcorruptScenariosAreKnown) {
  const std::vector<std::string> names = simmpi::knownFaultScenarios();
  auto has = [&](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  EXPECT_TRUE(has("multicrash"));
  EXPECT_TRUE(has("ckptcorrupt"));
  const FaultConfig multi = simmpi::faultScenario("multicrash", 1, 4);
  EXPECT_GE(multi.crashRank, 0);
  EXPECT_GE(multi.crashRank2, 0);
  EXPECT_NE(multi.crashRank, multi.crashRank2);
  const FaultConfig corrupt = simmpi::faultScenario("ckptcorrupt", 1, 4);
  EXPECT_GE(corrupt.crashRank, 0);
  EXPECT_EQ(corrupt.ckptCorruptRank, corrupt.crashRank);
}

// ---------------------------------------------------------------------------
// DirtyMap (the panel-granular tracking the core layer marks into)
// ---------------------------------------------------------------------------

TEST(DirtyMap, MarksClipsAndEnumeratesColumnMajor) {
  simmpi::DirtyMap map;
  map.reset(4, 3);
  EXPECT_EQ(map.markedCount(), 0u);
  map.mark(1, 2);
  map.markRect(2, 0, 99, 1);  // clipped to rows 2..3 of column 0
  EXPECT_TRUE(map.test(1, 2));
  EXPECT_TRUE(map.test(2, 0));
  EXPECT_TRUE(map.test(3, 0));
  EXPECT_FALSE(map.test(0, 0));
  EXPECT_FALSE(map.test(1, 1));
  map.mark(1, 2);  // re-marking is idempotent
  EXPECT_EQ(map.markedCount(), 3u);
  const std::vector<index_t> tiles = map.markedTiles();
  ASSERT_EQ(tiles.size(), 3u);
  EXPECT_EQ(tiles[0], 2);      // (2,0) -> 0*4+2
  EXPECT_EQ(tiles[1], 3);      // (3,0)
  EXPECT_EQ(tiles[2], 2 * 4 + 1);  // (1,2)
  map.clear();
  EXPECT_EQ(map.markedCount(), 0u);
  EXPECT_FALSE(map.test(1, 2));
}

TEST(CrashRecovery, ConfigRejectsLookahead) {
  HplaiConfig cfg = recoveryConfig(4);
  cfg.lookahead = true;
  EXPECT_THROW(cfg.validate(), CheckError);
  cfg.lookahead = false;
  EXPECT_NO_THROW(cfg.validate());
}

// ---------------------------------------------------------------------------
// ABFT: checksum math and in-run correction
// ---------------------------------------------------------------------------

std::vector<half16> makePanel(index_t m, index_t n, std::uint32_t seed) {
  std::vector<half16> panel(static_cast<std::size_t>(m) *
                            static_cast<std::size_t>(n));
  std::uint32_t s = seed;
  for (auto& h : panel) {
    s = s * 1664525u + 1013904223u;
    const float v = static_cast<float>(static_cast<int>(s >> 16) % 97 - 48) /
                    16.0f;
    h = half16(v);
  }
  return panel;
}

TEST(Abft, CleanPanelVerifies) {
  const index_t m = 24, n = 16;
  std::vector<half16> panel = makePanel(m, n, 11);
  std::vector<float> rows(m), cols(n);
  blas::abftChecksum(m, n, panel.data(), m, rows.data(), cols.data());
  const blas::AbftOutcome out = blas::abftVerifyCorrect(
      m, n, panel.data(), m, rows.data(), cols.data());
  EXPECT_EQ(out.status, blas::AbftOutcome::Status::kClean);
}

TEST(Abft, SingleBitFlipIsCorrectedExactly) {
  const index_t m = 24, n = 16;
  for (int bit = 0; bit < 16; ++bit) {
    std::vector<half16> panel = makePanel(m, n, 100 + bit);
    std::vector<float> rows(m), cols(n);
    blas::abftChecksum(m, n, panel.data(), m, rows.data(), cols.data());
    const index_t i = (7 * bit) % m;
    const index_t j = (3 * bit) % n;
    const std::uint16_t orig = panel[i + j * m].bits();
    const std::uint16_t bad =
        orig ^ static_cast<std::uint16_t>(1u << bit);
    if (bad == orig) {
      continue;
    }
    panel[i + j * m] = half16::fromBits(bad);
    const blas::AbftOutcome out = blas::abftVerifyCorrect(
        m, n, panel.data(), m, rows.data(), cols.data());
    ASSERT_EQ(out.status, blas::AbftOutcome::Status::kCorrected)
        << "bit " << bit;
    EXPECT_EQ(out.row, i);
    EXPECT_EQ(out.col, j);
    EXPECT_EQ(out.badBits, bad);
    EXPECT_EQ(panel[i + j * m].bits(), orig)
        << "bit " << bit << ": correction must be bit-exact";
  }
}

TEST(Abft, ChecksumPayloadFlipLeavesPanelIntact) {
  const index_t m = 20, n = 8;
  std::vector<half16> panel = makePanel(m, n, 5);
  std::vector<float> rows(m), cols(n);
  blas::abftChecksum(m, n, panel.data(), m, rows.data(), cols.data());
  std::uint32_t bits;
  std::memcpy(&bits, &rows[4], sizeof(bits));
  bits ^= 1u << 30;  // corrupt the checksum, not the data
  std::memcpy(&rows[4], &bits, sizeof(bits));
  const blas::AbftOutcome out = blas::abftVerifyCorrect(
      m, n, panel.data(), m, rows.data(), cols.data());
  EXPECT_EQ(out.status, blas::AbftOutcome::Status::kChecksumCorrupted);
}

TEST(Abft, MultiElementCorruptionIsUncorrectable) {
  const index_t m = 20, n = 8;
  std::vector<half16> panel = makePanel(m, n, 6);
  std::vector<float> rows(m), cols(n);
  blas::abftChecksum(m, n, panel.data(), m, rows.data(), cols.data());
  panel[2 + 1 * m] = half16(13.0f);
  panel[9 + 5 * m] = half16(-9.0f);
  const blas::AbftOutcome out = blas::abftVerifyCorrect(
      m, n, panel.data(), m, rows.data(), cols.data());
  EXPECT_EQ(out.status, blas::AbftOutcome::Status::kUncorrectable);
}

TEST(Abft, GemmCarryCheckPassesCleanAndCatchesCorruption) {
  const index_t m = 32, n = 24, k = 16;
  std::vector<half16> l = makePanel(m, k, 21);
  std::vector<half16> u = makePanel(n, k, 22);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.5f);
  std::vector<double> before(m);
  blas::abftRowSums64(m, n, c.data(), m, before.data());
  // Reference FP32-accumulation GEMM: C -= L * U^T.
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      float acc = 0.0f;
      for (index_t p = 0; p < k; ++p) {
        acc += l[i + p * m].toFloat() * u[j + p * n].toFloat();
      }
      c[i + j * m] -= acc;
    }
  }
  blas::AbftGemmCheck chk = blas::abftGemmCarryCheck(
      m, n, k, before.data(), l.data(), m, u.data(), n, c.data(), m);
  EXPECT_TRUE(chk.ok) << "row " << chk.row << " predicted " << chk.predicted
                      << " actual " << chk.actual;
  // Simulate an exponent flip landing during the update.
  c[5 + 3 * m] *= 65536.0f;
  c[5 + 3 * m] += 4096.0f;
  chk = blas::abftGemmCarryCheck(m, n, k, before.data(), l.data(), m,
                                 u.data(), n, c.data(), m);
  EXPECT_FALSE(chk.ok);
  EXPECT_EQ(chk.row, 5);
}

TEST(Abft, InRunPanelFlipsAreCorrectedBitwise) {
  // Baseline without faults or ABFT.
  HplaiConfig base = recoveryConfig(0);
  const RunOutput clean = runWith(base, nullptr);
  ASSERT_TRUE(clean.result.converged);

  // Inject FP16 flips into panel broadcasts only: the minimum-size gate
  // excludes the diagonal block (1 KiB) and the checksum payloads.
  FaultConfig fc;
  fc.seed = 0x5DC;
  fc.bitflipProbability = 0.25;
  fc.bitflipMinBytes = 2048;
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(0);
  cfg.abftPanels = true;
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput protectedRun = runWith(cfg, inj);

  const std::vector<FlipRecord> flips = inj->flipRecords();
  ASSERT_GT(flips.size(), 0u) << "scenario injected no flips; tune seed";
  for (const FlipRecord& f : flips) {
    EXPECT_GE(f.payloadBytes, 2048u);
    EXPECT_EQ(f.bit, 6);  // exponent bit of the high byte
  }
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  // Every injected flip must have been corrected at least once (a flip on
  // a forwarded segment is seen — and fixed — by every downstream rank).
  EXPECT_GE(rep.flipsCorrected, flips.size());
  EXPECT_EQ(rep.flipsDetected, rep.flipsCorrected);
  expectBitwiseEqual(clean, protectedRun);
}

TEST(Abft, CleanRunWithAbftIsBitwiseIdentical) {
  // The checksums ride alongside the panels and never perturb the data.
  const RunOutput plain = runWith(recoveryConfig(0), nullptr);
  HplaiConfig cfg = recoveryConfig(0);
  cfg.abftPanels = true;
  cfg.abftGemm = true;
  const RunOutput checked = runWith(cfg, nullptr);
  expectBitwiseEqual(plain, checked);
}

TEST(Abft, GemmCarryCheckAcceptsHonestFactorization) {
  HplaiConfig cfg = recoveryConfig(0);
  cfg.abftGemm = true;
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput out = runWith(cfg, nullptr);
  EXPECT_TRUE(out.result.converged);
  EXPECT_GT(simmpi::snapshotRecovery(*cfg.recoveryStats).abftGemmChecks, 0u);
}

TEST(Abft, CrashAndFlipTogetherRecoverBitwise) {
  // The full gauntlet: a panel flip corrected by ABFT and a rank crash
  // resurrected via replay, in one run.
  const RunOutput clean = runWith(recoveryConfig(0), nullptr);
  FaultConfig fc;
  fc.seed = 0x5DC;
  fc.bitflipProbability = 0.25;
  fc.bitflipMinBytes = 2048;
  fc.crashRank = 3;
  fc.crashAtOp = 40;
  auto inj = std::make_shared<FaultInjector>(fc, 4);
  HplaiConfig cfg = recoveryConfig(3);
  cfg.abftPanels = true;
  cfg.recoveryStats = std::make_shared<RecoveryStats>();
  const RunOutput survived = runWith(cfg, inj);
  EXPECT_EQ(inj->stats().crashes, 1u);
  const simmpi::RecoveryReport rep =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  EXPECT_EQ(rep.resurrections, 1u);
  expectBitwiseEqual(clean, survived);
}

// ---------------------------------------------------------------------------
// MultiRankError determinism and fault provenance (satellite)
// ---------------------------------------------------------------------------

std::vector<simmpi::RankFailure> failingRun() {
  FaultConfig fc;
  fc.seed = 0xFA11;
  fc.crashRank = 1;
  fc.crashAtOp = 2;
  fc.crashOnce = false;  // the node stays dead; peers time out
  auto inj = std::make_shared<FaultInjector>(fc, 3);
  simmpi::RunOptions opts;
  opts.faults = inj;
  opts.timeout = std::chrono::milliseconds(200);
  try {
    simmpi::run(3, [](simmpi::Comm& world) {
      for (int round = 0; round < 8; ++round) {
        world.barrier();
      }
    }, opts);
  } catch (const simmpi::MultiRankError& e) {
    return e.failures();
  }
  ADD_FAILURE() << "expected MultiRankError";
  return {};
}

TEST(MultiRankError, FailureSetIsDeterministicAcrossRuns) {
  const std::vector<simmpi::RankFailure> a = failingRun();
  const std::vector<simmpi::RankFailure> b = failingRun();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GE(a.size(), 2u);  // the crashed rank plus >= 1 timed-out peer
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rank, b[i].rank);
    EXPECT_EQ(a[i].message, b[i].message);
  }
}

TEST(MultiRankError, CarriesPerRankFaultProvenance) {
  const std::vector<simmpi::RankFailure> failures = failingRun();
  ASSERT_GE(failures.size(), 2u);
  bool sawCrash = false;
  for (const simmpi::RankFailure& f : failures) {
    EXPECT_NE(f.message.find("fault plan seed"), std::string::npos)
        << "rank " << f.rank << ": " << f.message;
    EXPECT_NE(f.message.find("comm ops"), std::string::npos);
    if (f.message.find("injected crash") != std::string::npos ||
        f.rank == 1) {
      sawCrash = true;
    }
  }
  EXPECT_TRUE(sawCrash);
}

// ---------------------------------------------------------------------------
// scanAbnormal coordinate reporting (satellite)
// ---------------------------------------------------------------------------

TEST(ScanAbnormal, ReportsFirstOffenderCoordinatesColumnMajor) {
  std::vector<float> tile(6 * 4, 1.0f);
  tile[3 + 2 * 6] = 1e9f;   // column 2 — scanned after column 1
  tile[5 + 1 * 6] = -2e9f;  // column 1 — the first offender in scan order
  const blas::AbnormalScan s =
      blas::scanAbnormal(6, 4, tile.data(), 6, 1e6);
  ASSERT_TRUE(static_cast<bool>(s));
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.firstRow, 5);
  EXPECT_EQ(s.firstCol, 1);
  EXPECT_EQ(s.firstValue, static_cast<double>(-2e9f));
  const std::string msg = s.describe();
  EXPECT_NE(msg.find("(5, 1)"), std::string::npos) << msg;
}

TEST(ScanAbnormal, ReportsNonFiniteHalfCoordinates) {
  std::vector<half16> panel(8 * 3, half16(0.25f));
  panel[2 + 1 * 8] = half16::fromBits(0x7C00);  // +inf
  const blas::AbnormalScan s =
      blas::scanAbnormal(8, 3, panel.data(), 8, 64.0);
  ASSERT_TRUE(static_cast<bool>(s));
  EXPECT_EQ(s.firstRow, 2);
  EXPECT_EQ(s.firstCol, 1);
  EXPECT_TRUE(s.sawNonFinite);
}

// ---------------------------------------------------------------------------
// `hplmxp recover` (the CLI demo of the whole stack)
// ---------------------------------------------------------------------------

TEST(CmdRecover, CrashPlusFlipsRecoverBitwiseAndReportJson) {
  const std::string jsonPath = "test_recover_report.json";
  const int rc = cli::cmdRecover(cli::Options::parseArgs(
      {"--crash-rank=2", "--crash-at-op=35", "--flip-probability=0.25",
       "--json", jsonPath}));
  EXPECT_EQ(rc, 0);

  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(jsonPath.c_str());

  const serve::JsonValue report = serve::JsonValue::parse(text.str());
  EXPECT_TRUE(report.get("bitwise_identical").asBool());
  EXPECT_TRUE(report.get("converged").asBool());
  EXPECT_EQ(report.get("crashes_injected").asNumber(), 1.0);
  EXPECT_EQ(report.get("resurrections").asNumber(), 1.0);
  EXPECT_GT(report.get("checkpoints").asNumber(), 0.0);
  EXPECT_EQ(report.get("flips_detected").asNumber(),
            report.get("flips_corrected").asNumber());
}

}  // namespace
}  // namespace hplmxp
