// Writes the seed corpora for every fuzz harness, using the real encoders so
// each seed is a structurally valid input the mutator can degrade from.
// Regenerate with:  gt_fuzz_gen_corpus tests/fuzz/corpus
// The output is checked in: test_corpus_replay replays it as a plain ctest
// target, and gt_fuzz/libFuzzer use it as the mutation base.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/mutation.h"
#include "src/engine/types.h"
#include "src/graph/encoding.h"
#include "src/graph/property.h"
#include "src/kv/manifest.h"
#include "src/kv/table.h"
#include "src/kv/wal.h"
#include "src/kv/write_batch.h"
#include "src/lang/plan.h"
#include "src/rpc/message.h"
#include "tests/fuzz/mem_files.h"

namespace {

int g_files = 0;

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& contents) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  g_files++;
}

gt::lang::TraversalPlan SamplePlan() {
  gt::lang::TraversalPlan plan;
  plan.start_ids = {1, 2, 42};
  gt::lang::Filter type_eq;
  type_eq.key = 7;
  type_eq.op = gt::lang::FilterOp::kEq;
  type_eq.values = {gt::graph::PropValue(std::string("file"))};
  plan.start_vertex_filters.push_back(type_eq);

  gt::lang::Hop hop;
  hop.edge_label = 3;
  gt::lang::Filter range;
  range.key = 9;
  range.op = gt::lang::FilterOp::kRange;
  range.values = {gt::graph::PropValue(int64_t{10}), gt::graph::PropValue(int64_t{99})};
  hop.edge_filters.push_back(range);
  hop.rtn = true;
  plan.hops.push_back(hop);
  return plan;
}

gt::engine::Frontier SampleFrontier() {
  gt::engine::Frontier frontier;
  frontier.Add(100, {1, 2});
  frontier.Add(101, {});
  frontier.Add(102, {3});
  return frontier;
}

// Extended-language plans (versioned ext tail): every new field appears in
// at least one seed so the mutator starts from the full wire surface.
gt::lang::TraversalPlan RepeatUntilCountPlan() {
  gt::lang::TraversalPlan plan;
  plan.start_ids = {1};
  gt::lang::Hop h1;
  h1.edge_label = 3;
  h1.repeat = 4;
  gt::lang::Hop h2;
  h2.edge_label = 3;
  gt::lang::Filter until;
  until.key = 9;
  until.op = gt::lang::FilterOp::kRange;
  until.values = {gt::graph::PropValue(int64_t{5}), gt::graph::PropValue(int64_t{30})};
  h2.until_filters.push_back(until);
  plan.hops = {h1, h2};
  plan.result_mode = gt::lang::ResultMode::kCount;
  return plan;
}

gt::lang::TraversalPlan BranchGroupPlan() {
  gt::lang::TraversalPlan plan;
  gt::lang::Filter type_eq;
  type_eq.key = 0;
  type_eq.op = gt::lang::FilterOp::kEq;
  type_eq.values = {gt::graph::PropValue(std::string("file"))};
  plan.start_vertex_filters.push_back(type_eq);
  gt::lang::Hop a1;
  a1.edge_label = 3;
  gt::lang::Hop a2;
  a2.edge_label = 4;
  a2.repeat = 2;
  plan.branch_alts = {{a1}, {a2}};
  gt::lang::Hop tail;
  tail.edge_label = 5;
  plan.branch_tail = {tail};
  plan.result_mode = gt::lang::ResultMode::kGroup;
  plan.group_key = 9;
  return plan;
}

gt::lang::TraversalPlan PathsPlan() {
  gt::lang::TraversalPlan plan;
  plan.start_ids = {1, 2};
  gt::lang::Hop h;
  h.edge_label = 3;
  plan.hops = {h, h};
  plan.result_mode = gt::lang::ResultMode::kPaths;
  return plan;
}

void GenMessage(const std::filesystem::path& root) {
  gt::rpc::Message m;
  m.type = gt::rpc::MsgType::kSubmitTraversal;
  m.src = 1u << 20;
  m.dst = 0;
  m.rpc_id = 7;
  m.payload = "payload-bytes";
  std::string wire;
  m.EncodeTo(&wire);
  WriteSeed(root / "message", "submit", wire.substr(4));  // body = after frame_len

  m.type = gt::rpc::MsgType::kTraverse;
  m.rpc_id = 0;
  m.payload.clear();
  wire.clear();
  m.EncodeTo(&wire);
  WriteSeed(root / "message", "empty_payload", wire.substr(4));
}

void GenRpcPayloads(const std::filesystem::path& root) {
  using namespace gt::engine;  // NOLINT
  const std::filesystem::path dir = root / "rpc_payloads";
  const std::string plan = SamplePlan().Encode();

  // Selector byte (see fuzz_rpc_payloads.cc) + encoded payload.
  auto seed = [&](uint8_t selector, const std::string& name, const std::string& body) {
    WriteSeed(dir, name, std::string(1, static_cast<char>(selector)) + body);
  };

  SubmitPayload submit;
  submit.mode = 1;
  submit.timeout_ms = 500;
  submit.plan = plan;
  submit.priority_class = 1;
  submit.deadline_ms = 2000;
  seed(0, "submit", submit.Encode());

  TraversePayload traverse;
  traverse.travel_id = 9;
  traverse.step = 2;
  traverse.mode = 1;
  std::string plan_store = plan;
  traverse.plan = plan_store;
  traverse.entries = SampleFrontier();
  seed(1, "traverse", traverse.Encode());

  AnswerPayload answer;
  answer.travel_id = 9;
  answer.reached_parents = {1, 2};
  answer.result_vids = {100, 101};
  seed(2, "answer", answer.Encode());

  AnswerPayload answer_ext;
  answer_ext.travel_id = 9;
  answer_ext.result_vids = {100, 101};
  answer_ext.result_values = {"bucket-a", "bucket-b"};
  answer_ext.result_paths = {{1, 50, 100}, {2, 101}};
  seed(2, "answer_ext", answer_ext.Encode());

  TraceBatchPayload trace;
  trace.travel_id = 9;
  trace.items = {{21, 0, 1}, {22, 1, 0}};
  seed(3, "trace_batch", trace.Encode());

  ResultChunkPayload chunk;
  chunk.travel_id = 9;
  chunk.vids = {5, 6, 7};
  seed(4, "result_chunk", chunk.Encode());

  ResultChunkPayload chunk_ext;
  chunk_ext.travel_id = 9;
  chunk_ext.groups = {{"file", 12}, {"dir", 3}};
  chunk_ext.paths = {{1, 5}, {2, 6, 7}};
  seed(4, "result_chunk_ext", chunk_ext.Encode());

  CompletePayload complete;
  complete.travel_id = 9;
  complete.ok = 0;
  complete.error = "deadline exceeded";
  complete.code = 4;
  complete.total_results = 42;
  seed(5, "complete", complete.Encode());

  AbortPayload abort_p;
  abort_p.travel_id = 9;
  seed(6, "abort", abort_p.Encode());

  AbortPayload abort_status;
  abort_status.travel_id = 9;
  abort_status.reason = AbortPayload::kFail;
  abort_status.code = 2;  // StatusCode::kCorruption
  abort_status.message = "bad vertex value for vid 50";
  seed(6, "abort_status", abort_status.Encode());

  ProgressPayload progress;
  progress.travel_id = 9;
  progress.unfinished_per_step = {4, 2, 0};
  progress.total_created = 10;
  progress.total_terminated = 6;
  seed(7, "progress", progress.Encode());

  ReleaseStepPayload release;
  release.travel_id = 9;
  release.step = 2;
  seed(8, "release_step", release.Encode());

  PutVertexPayload put_v;
  put_v.vid = 4;
  put_v.label = "file";
  put_v.props = {{"size", gt::graph::PropValue(int64_t{4096})},
                 {"name", gt::graph::PropValue(std::string("a.txt"))}};
  seed(9, "put_vertex", put_v.Encode());

  PutEdgePayload put_e;
  put_e.src = 4;
  put_e.label = "contains";
  put_e.dst = 5;
  put_e.props = {{"ts", gt::graph::PropValue(3.5)}};
  seed(10, "put_edge", put_e.Encode());

  MutateAckPayload ack;
  ack.ok = 0;
  ack.error = "not the owner";
  seed(11, "mutate_ack", ack.Encode());

  MutateAckPayload ack_status;
  ack_status.ok = 0;
  ack_status.error = "catalog cannot intern a label or property";
  ack_status.code = 6;  // StatusCode::kUnavailable
  seed(11, "mutate_ack_status", ack_status.Encode());

  GetVertexPayload get_v;
  get_v.vid = 4;
  seed(12, "get_vertex", get_v.Encode());

  VertexReplyPayload reply;
  reply.found = 1;
  reply.vid = 4;
  reply.label = "file";
  reply.props = {{"size", gt::graph::PropValue(int64_t{4096})}};
  seed(13, "vertex_reply", reply.Encode());

  VertexReplyPayload reply_status;
  reply_status.vid = 50;
  reply_status.code = 2;  // StatusCode::kCorruption
  reply_status.message = "bad vertex value for vid 50";
  seed(13, "vertex_reply_status", reply_status.Encode());

  CatalogInternPayload intern;
  intern.name = "contains";
  seed(14, "catalog_intern", intern.Encode());

  CatalogReplyPayload cat;
  cat.id = 3;
  cat.names = {"file", "dir", "contains"};
  seed(15, "catalog_reply", cat.Encode());
}

void GenPlan(const std::filesystem::path& root) {
  WriteSeed(root / "plan", "two_step", SamplePlan().Encode());
  gt::lang::TraversalPlan empty_start;
  gt::lang::Filter type_eq;
  type_eq.key = 1;
  type_eq.op = gt::lang::FilterOp::kEq;
  type_eq.values = {gt::graph::PropValue(std::string("dir"))};
  empty_start.start_vertex_filters.push_back(type_eq);
  empty_start.start_rtn = true;
  WriteSeed(root / "plan", "scan_start", empty_start.Encode());

  // Extended-language tails.
  WriteSeed(root / "plan", "repeat_until_count", RepeatUntilCountPlan().Encode());
  WriteSeed(root / "plan", "branch_group", BranchGroupPlan().Encode());
  WriteSeed(root / "plan", "paths", PathsPlan().Encode());
}

void GenWal(const std::filesystem::path& root) {
  std::string log;
  gt::kv::WalWriter writer(std::make_unique<gt::fuzz::MemWritableFile>(&log));

  gt::kv::WriteBatch batch;
  batch.SetSequence(1);
  batch.Put("vertex/1", "props-a");
  batch.Put("vertex/2", "props-b");
  batch.Delete("vertex/1");
  (void)writer.AddRecord(batch.rep());

  gt::kv::WriteBatch batch2;
  batch2.SetSequence(4);
  batch2.Put("edge/1/3/2", "");
  (void)writer.AddRecord(batch2.rep());
  WriteSeed(root / "wal", "two_batches", log);

  // Torn tail: a record whose payload was half-written at crash time.
  WriteSeed(root / "wal", "torn_tail", log.substr(0, log.size() - 5));
}

void GenManifest(const std::filesystem::path& root) {
  gt::kv::VersionEdit edit;
  edit.added_tables = {3, 4};
  edit.removed_tables = {1};
  edit.next_file_id = 5;
  edit.last_sequence = 900;
  std::string wire;
  edit.EncodeTo(&wire);
  WriteSeed(root / "manifest", "compaction_install", wire);
}

void GenBlockAndTable(const std::filesystem::path& root) {
  // Valid internal keys: user key + fixed64 (sequence<<8 | type).
  auto ikey = [](const std::string& user, uint64_t seq) {
    std::string k = user;
    gt::PutFixed64(&k, (seq << 8) | 1);
    return k;
  };

  gt::kv::BlockBuilder bb(4);
  bb.Add(ikey("alpha", 9), "value-a");
  bb.Add(ikey("beta", 8), "value-b");
  bb.Add(ikey("betas", 7), "value-c");  // exercises prefix compression
  gt::kv::Slice finished = bb.Finish();
  WriteSeed(root / "block", "three_entries", std::string(finished.data(), finished.size()));

  std::string table;
  gt::kv::TableBuilder tb(std::make_unique<gt::fuzz::MemWritableFile>(&table), 64);
  for (int i = 0; i < 20; i++) {
    char user[16];
    std::snprintf(user, sizeof(user), "key%04d", i);
    (void)tb.Add(ikey(user, 100 - i), "value");
  }
  (void)tb.Finish();
  WriteSeed(root / "table", "twenty_keys", table);
}

void GenTextIo(const std::filesystem::path& root) {
  WriteSeed(root / "text_io", "small_graph",
            "V\t1\tfile\tname=s:a.txt\tsize=i:4096\n"
            "V\t2\tdir\tname=s:home%09dir\n"
            "E\t2\tcontains\t1\tts=d:3.5\n");
}

void GenGraphCodec(const std::filesystem::path& root) {
  const std::filesystem::path dir = root / "graph_codec";
  // Selector byte (see fuzz_graph_codec.cc) + encoded input. ('\0' selects
  // the key parsers; a "\x00" literal would be an empty C string.)
  WriteSeed(dir, "vertex_key", std::string(1, '\0') + gt::graph::VertexKey(42));
  WriteSeed(dir, "edge_key", std::string(1, '\0') + gt::graph::EdgeKey(42, 3, 43));

  gt::graph::PropMap props;
  props.Set(1, gt::graph::PropValue(int64_t{7}));
  props.Set(2, gt::graph::PropValue(std::string("abc")));
  WriteSeed(dir, "vertex_value",
            std::string(1, 1) + gt::graph::EncodeVertexValue(5, props));
  WriteSeed(dir, "edge_value", std::string(1, 2) + gt::graph::EncodeEdgeValue(props));

  std::string value;
  gt::graph::PropValue(3.25).EncodeTo(&value);
  WriteSeed(dir, "prop_double", std::string(1, 3) + value);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: gt_fuzz_gen_corpus <corpus-root-dir>\n");
    return 2;
  }
  const std::filesystem::path root = argv[1];
  GenMessage(root);
  GenRpcPayloads(root);
  GenPlan(root);
  GenWal(root);
  GenManifest(root);
  GenBlockAndTable(root);
  GenTextIo(root);
  GenGraphCodec(root);
  std::printf("gt_fuzz_gen_corpus: wrote %d seed file(s) under %s\n", g_files,
              root.string().c_str());
  return 0;
}
