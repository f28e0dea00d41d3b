// The saved-state invariant of TransactionalActor: every saved version of an
// actor's state is an image — the exact bytes its WAL record carries — and
// the live state rolls back to the committed image. Checked against the WAL
// read back from a MemEnv, on SmallBank (PACT, ACT, checkpoints, and the
// recover, kill-reactivate and cold-shed install paths) and on TPC-C's
// nested map/list states (global abort rollback).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "snapper/snapper_runtime.h"
#include "tests/common/watchdog.h"
#include "wal/checkpoint.h"
#include "wal/log_format.h"
#include "workloads/smallbank.h"
#include "workloads/tpcc.h"

namespace snapper {
namespace {

using smallbank::SmallBankActor;

/// Reads `id`'s current and committed states on its strand.
std::pair<Value, Value> States(SnapperRuntime& rt, const ActorId& id) {
  return rt.runtime()
      .Call<TransactionalActor>(
          id,
          [](TransactionalActor& a) -> Task<std::pair<Value, Value>> {
            co_return std::make_pair(a.state_for_test(),
                                     a.committed_state_for_test());
          })
      .Get();
}

std::string CommittedImage(SnapperRuntime& rt, const ActorId& id) {
  return States(rt, id).second.Encode();
}

/// The payload of the last state record each actor wrote, in log order —
/// of any type, or of `type` only.
std::map<ActorId, std::string> LastPayloads(
    Env& env, std::optional<LogRecordType> type) {
  std::map<ActorId, std::string> out;
  EXPECT_TRUE(ForEachWalRecord(env, std::nullopt, [&](LogRecord& record) {
                if (!record.state.empty() &&
                    (!type.has_value() || record.type == *type)) {
                  out[record.actor] = std::move(record.state);
                }
              }).ok());
  return out;
}

/// Commits reach participants as messages after the client's result
/// resolves; polls until `id`'s committed image is `want`.
bool CommittedImageBecomes(SnapperRuntime& rt, const ActorId& id,
                           const std::string& want) {
  for (int spin = 0; spin < 2000; ++spin) {
    if (CommittedImage(rt, id) == want) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

class StateImageTest : public ::testing::Test {
 protected:
  void Open(SnapperConfig config = {}) {
    rt_ = std::make_unique<SnapperRuntime>(config, &env_);
    type_ = smallbank::RegisterSmallBank(*rt_);
    rt_->Start();
  }

  ActorId Acc(uint64_t k) const { return ActorId{type_, k}; }

  TxnResult Transfer(TxnMode mode, uint64_t from, uint64_t to) {
    Value input = SmallBankActor::MultiTransferInput(10.0, {to});
    if (mode == TxnMode::kPact) {
      return rt_->RunPact(
          Acc(from), "MultiTransfer", std::move(input),
          SmallBankActor::MultiTransferAccessInfo(type_, from, {to}));
    }
    return rt_->RunAct(Acc(from), "MultiTransfer", std::move(input));
  }

  MemEnv env_;
  std::unique_ptr<SnapperRuntime> rt_;
  uint32_t type_ = 0;
};

// A PACT commit promotes exactly the bytes each participant's BatchComplete
// logged, and an ACT commit exactly the bytes its ActPrepare logged.
TEST_F(StateImageTest, CommittedImageIsLastLoggedSnapshot) {
  Open();
  ASSERT_TRUE(Transfer(TxnMode::kPact, 1, 2).ok());
  auto completes = LastPayloads(env_, LogRecordType::kBatchComplete);
  for (uint64_t k : {1, 2}) {
    ASSERT_EQ(completes.count(Acc(k)), 1u) << "account " << k;
    EXPECT_TRUE(CommittedImageBecomes(*rt_, Acc(k), completes[Acc(k)]))
        << "account " << k;
  }

  ASSERT_TRUE(Transfer(TxnMode::kAct, 2, 3).ok());
  auto prepares = LastPayloads(env_, LogRecordType::kActPrepare);
  for (uint64_t k : {2, 3}) {
    ASSERT_EQ(prepares.count(Acc(k)), 1u) << "account " << k;
    EXPECT_TRUE(CommittedImageBecomes(*rt_, Acc(k), prepares[Acc(k)]))
        << "account " << k;
  }
  // The PACT's other participant kept its image.
  EXPECT_EQ(CommittedImage(*rt_, Acc(1)), completes[Acc(1)]);
}

// A checkpoint carries the committed image as is.
TEST_F(StateImageTest, CheckpointPayloadIsCommittedImage) {
  SnapperConfig config;
  config.checkpoint_threshold_bytes = 1;
  Open(config);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(Transfer(TxnMode::kPact, 1, 2).ok());
  }
  // The last commit reaches the participant after the client's result
  // resolves, and its promotion re-requests a checkpoint at the next
  // quiescent turn boundary; wait for both to land.
  const std::string image =
      LastPayloads(env_, LogRecordType::kBatchComplete)[Acc(1)];
  ASSERT_TRUE(CommittedImageBecomes(*rt_, Acc(1), image));
  bool matched = false;
  for (int spin = 0; spin < 2000 && !matched; ++spin) {
    auto checkpoints = LastPayloads(env_, LogRecordType::kCheckpoint);
    auto it = checkpoints.find(Acc(1));
    matched = it != checkpoints.end() && it->second == image &&
              CommittedImage(*rt_, Acc(1)) == image;
    if (!matched) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(matched);
}

// States stay the logged bytes through every install path. After a run
// whose transactions all committed, each actor's last logged payload is its
// committed image; a kill's WAL reactivation, a cold shed and a crash plus
// Recover() each install exactly that image, and Recover() re-checkpoints
// the very bytes it recovered.
TEST_F(StateImageTest, InstallPathsKeepLoggedImages) {
  Open();
  ASSERT_TRUE(Transfer(TxnMode::kPact, 1, 2).ok());
  ASSERT_TRUE(Transfer(TxnMode::kAct, 2, 3).ok());
  ASSERT_TRUE(Transfer(TxnMode::kPact, 3, 1).ok());
  const auto logged = LastPayloads(env_, std::nullopt);
  ASSERT_EQ(logged.size(), 3u);
  for (uint64_t k : {1, 2, 3}) {
    ASSERT_TRUE(CommittedImageBecomes(*rt_, Acc(k), logged.at(Acc(k))))
        << "account " << k;
  }

  auto kill = rt_->KillActor(Acc(2));
  ASSERT_TRUE(testing::WaitResolved(kill, 30.0));
  EXPECT_EQ(CommittedImage(*rt_, Acc(2)), logged.at(Acc(2)));

  auto shed = rt_->runtime().Call<TransactionalActor>(
      Acc(3), [](TransactionalActor& a) { return a.CheckpointAndDeactivate(); });
  ASSERT_TRUE(shed.Get());
  EXPECT_EQ(LastPayloads(env_, LogRecordType::kCheckpoint).at(Acc(3)),
            logged.at(Acc(3)));
  EXPECT_EQ(CommittedImage(*rt_, Acc(3)), logged.at(Acc(3)));  // reactivates
  EXPECT_EQ(rt_->context().counters.cold_deactivations.load(), 1u);

  rt_.reset();
  env_.CrashAll();
  rt_ = std::make_unique<SnapperRuntime>(SnapperConfig{}, &env_);
  type_ = smallbank::RegisterSmallBank(*rt_);
  auto recovered = rt_->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().actor_states, logged);
  // The previous incarnation's files are retired: only Recover()'s
  // re-checkpoints carry state now.
  EXPECT_EQ(LastPayloads(env_, std::nullopt),
            LastPayloads(env_, LogRecordType::kCheckpoint));
  EXPECT_EQ(LastPayloads(env_, LogRecordType::kCheckpoint), logged);
  rt_->Start();
  for (uint64_t k : {1, 2, 3}) {
    EXPECT_EQ(CommittedImage(*rt_, Acc(k)), logged.at(Acc(k)))
        << "account " << k;
  }
}

// A global abort striking TPC-C NewOrders in flight rolls every actor's
// nested map/list state back to its committed image. A 2 ms sync and paced
// submission keep batches in flight when the round starts.
TEST(StateImageTpccTest, AbortRoundRestoresCommittedImage) {
  MemEnv env;
  env.set_sync_latency(std::chrono::milliseconds(2));
  SnapperRuntime rt(SnapperConfig{}, &env);
  const tpcc::TpccTypes types = tpcc::RegisterTpcc(rt);
  rt.Start();
  tpcc::TpccLayout layout;
  layout.num_warehouses = 2;
  Rng rng(11);
  std::vector<Future<TxnResult>> futures;
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    tpcc::NewOrderRequest req = tpcc::MakeNewOrder(
        types, layout, rng, [&](Rng& r) { return r.Uniform(2); });
    futures.push_back(rt.SubmitPact(req.root, "NewOrder", req.input, req.info));
  }
  auto round = rt.context().abort_controller->RequestAbortAll(
      Status::TxnAborted(AbortReason::kUserAbort, "test abort"));
  ASSERT_TRUE(testing::WaitResolved(round, 30.0));
  ASSERT_EQ(0u, testing::WaitAllResolved(futures, 30.0));
  int aborted = 0;
  for (auto& f : futures) aborted += f.Get().ok() ? 0 : 1;
  EXPECT_GT(aborted, 0);  // the round rolled back batches in flight

  bool nested = false;
  // NewOrders batched after the round commit; their BatchCommit messages may
  // still be on the way.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (const ActorId& id : rt.context().TransactionalActors()) {
    auto [state, committed] = States(rt, id);
    while (state != committed && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      std::tie(state, committed) = States(rt, id);
    }
    EXPECT_EQ(state, committed) << id.ToString();
    if (state.is_map()) {
      for (const auto& [key, field] : state.AsMap()) {
        nested = nested || field.is_map() || field.is_list();
      }
    }
  }
  EXPECT_TRUE(nested);  // the images above held nested maps or lists
}

}  // namespace
}  // namespace snapper
