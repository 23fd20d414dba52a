// Randomized stress suite: long random operation sequences against the
// core mutable structures, auditing the full invariants after every
// step, plus fixed-seed mutation fuzzing of the user-facing readers
// (Json::parse and the propsim_lint edge-dump reader). These are the
// tests that catch bookkeeping bugs the directed suites never think to
// write.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lint_rules.h"
#include "common/indexed_priority_queue.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/neighbor_queue.h"
#include "fixtures.h"
#include "overlay/logical_graph.h"
#include "overlay/placement.h"
#include "sim/scheduler.h"

namespace propsim {
namespace {

using testing::run_rule;

TEST(FuzzLogicalGraph, RandomOpsKeepModelInSync) {
  Rng rng(71);
  const std::size_t slots = 24;
  LogicalGraph g(slots);
  // Reference model: adjacency matrix + active flags.
  std::vector<std::vector<bool>> edge(slots, std::vector<bool>(slots, false));
  std::vector<bool> active(slots, true);

  for (int step = 0; step < 4000; ++step) {
    const int op = static_cast<int>(rng.uniform(4));
    const SlotId a = static_cast<SlotId>(rng.uniform(slots));
    const SlotId b = static_cast<SlotId>(rng.uniform(slots));
    switch (op) {
      case 0:  // add edge
        if (a != b && active[a] && active[b] && !edge[a][b]) {
          g.add_edge(a, b);
          edge[a][b] = edge[b][a] = true;
        }
        break;
      case 1:  // remove edge
        if (a != b && edge[a][b]) {
          g.remove_edge(a, b);
          edge[a][b] = edge[b][a] = false;
        }
        break;
      case 2:  // deactivate
        if (active[a] && g.active_count() > 2) {
          g.deactivate_slot(a);
          active[a] = false;
          for (std::size_t x = 0; x < slots; ++x) {
            edge[a][x] = edge[x][a] = false;
          }
        }
        break;
      case 3:  // reactivate
        if (!active[a]) {
          g.reactivate_slot(a);
          active[a] = true;
        }
        break;
    }
    // Periodic audit against the reference model.
    if (step % 97 == 0) {
      std::size_t edges = 0;
      for (std::size_t x = 0; x < slots; ++x) {
        ASSERT_EQ(g.is_active(static_cast<SlotId>(x)), active[x]);
        for (std::size_t y = x + 1; y < slots; ++y) {
          ASSERT_EQ(g.has_edge(static_cast<SlotId>(x),
                               static_cast<SlotId>(y)),
                    edge[x][y]);
          if (edge[x][y]) ++edges;
        }
      }
      ASSERT_EQ(g.edge_count(), edges);
    }
  }
}

TEST(FuzzPlacement, RandomBindSwapUnbindStaysBijective) {
  Rng rng(73);
  const std::size_t slots = 20;
  const std::size_t hosts = 40;
  Placement p(slots, hosts);
  std::vector<SlotId> bound;

  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng.uniform(3));
    if (op == 0) {  // bind a free slot to a free host
      SlotId s = static_cast<SlotId>(rng.uniform(slots));
      NodeId h = static_cast<NodeId>(rng.uniform(hosts));
      if (!p.slot_bound(s) && !p.host_bound(h)) {
        p.bind(s, h);
        bound.push_back(s);
      }
    } else if (op == 1 && !bound.empty()) {  // unbind
      const std::size_t i = static_cast<std::size_t>(rng.uniform(bound.size()));
      p.unbind(bound[i]);
      bound[i] = bound.back();
      bound.pop_back();
    } else if (op == 2 && bound.size() >= 2) {  // swap
      const SlotId a =
          bound[static_cast<std::size_t>(rng.uniform(bound.size()))];
      const SlotId b =
          bound[static_cast<std::size_t>(rng.uniform(bound.size()))];
      if (a != b) p.swap_slots(a, b);
    }
    ASSERT_TRUE(run_rule("placement-bijection", {.placement = &p}).passed());
    ASSERT_EQ(p.bound_count(), bound.size());
  }
}

TEST(FuzzIndexedPriorityQueue, MirrorsMultimapSemantics) {
  Rng rng(79);
  const std::size_t keys = 64;
  IndexedPriorityQueue<double> q(keys);
  std::vector<double> prio(keys, 0.0);
  std::vector<bool> in(keys, false);

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.uniform(3));
    const std::size_t k = static_cast<std::size_t>(rng.uniform(keys));
    if (op == 0) {
      const double v = rng.uniform_double();
      q.push_or_update(k, v);
      prio[k] = v;
      in[k] = true;
    } else if (op == 1) {
      ASSERT_EQ(q.erase(k), in[k]);
      in[k] = false;
    } else if (!q.empty()) {
      const std::size_t top = q.top_key();
      ASSERT_TRUE(in[top]);
      // Top must match the model's minimum.
      const double best = prio[top];
      for (std::size_t x = 0; x < keys; ++x) {
        if (in[x]) {
          ASSERT_LE(best, prio[x]);
        }
      }
      q.pop();
      in[top] = false;
    }
    ASSERT_EQ(q.size(),
              static_cast<std::size_t>(std::count(in.begin(), in.end(), true)));
  }
}

TEST(FuzzNeighborQueue, OperationsNeverLoseMembers) {
  Rng rng(83);
  NeighborQueue q;
  std::set<SlotId> members;
  std::vector<SlotId> initial{1, 2, 3, 4, 5};
  q.initialize(initial, rng);
  members.insert(initial.begin(), initial.end());

  for (int step = 0; step < 5000; ++step) {
    const int op = static_cast<int>(rng.uniform(4));
    const SlotId s = static_cast<SlotId>(rng.uniform(12));
    switch (op) {
      case 0:
        if (!members.contains(s)) {
          q.add_front(s);
          members.insert(s);
          // A fresh neighbor gets maximum priority: it is the front.
          ASSERT_EQ(*q.front(), s);
        }
        break;
      case 1:
        q.remove(s);
        members.erase(s);
        break;
      case 2:
        q.on_success(s);  // no-op when absent
        break;
      case 3:
        q.on_failure(s);
        break;
    }
    ASSERT_EQ(q.size(), members.size());
    if (!members.empty()) {
      ASSERT_TRUE(members.contains(*q.front()));
    } else {
      ASSERT_FALSE(q.front().has_value());
    }
    for (const SlotId m : members) ASSERT_TRUE(q.contains(m));
  }
}

TEST(FuzzSimulator, RandomScheduleCancelRespectsOrdering) {
  Rng rng(89);
  Scheduler sim;
  std::vector<EventId> live;
  double last_fired = -1.0;
  int fired = 0;
  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng.uniform(3));
    if (op == 0 || live.empty()) {
      const double when = sim.now() + rng.uniform_double(0.0, 50.0);
      live.push_back(sim.schedule_at(when, [&, when] {
        ASSERT_GE(when, last_fired);
        last_fired = when;
        ++fired;
      }));
    } else if (op == 1) {
      const std::size_t i = static_cast<std::size_t>(rng.uniform(live.size()));
      sim.cancel(live[i]);
      live[i] = live.back();
      live.pop_back();
    } else {
      sim.run_until(sim.now() + rng.uniform_double(0.0, 10.0));
    }
  }
  sim.run_all();
  EXPECT_GT(fired, 100);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// ------------------------------------------------ reader fuzzing ----

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Every file under `dir` (relative to the source tree) whose name ends
/// in `suffix`, sorted by path so the corpus order is fixed.
std::vector<std::string> corpus(const std::string& dir,
                                const std::string& suffix) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(PROPSIM_SOURCE_DIR) / dir)) {
    if (entry.path().string().ends_with(suffix)) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> texts;
  for (const auto& path : paths) texts.push_back(read_text(path));
  return texts;
}

/// One mutation of a corpus entry: byte flips, a truncation, a splice of
/// two entries, a dictionary token dropped in, or plain random bytes.
std::string mutate(const std::vector<std::string>& seeds,
                   const std::vector<std::string>& tokens, Rng& rng) {
  const auto pick_pos = [&](const std::string& s) {
    return static_cast<std::size_t>(rng.uniform(s.size() + 1));
  };
  std::string s = rng.pick(seeds);
  switch (rng.uniform(5)) {
    case 0: {  // byte flips
      const int flips = 1 + static_cast<int>(rng.uniform(4));
      for (int i = 0; i < flips && !s.empty(); ++i) {
        s[static_cast<std::size_t>(rng.uniform(s.size()))] =
            static_cast<char>(rng.uniform(256));
      }
      return s;
    }
    case 1:  // truncation
      return s.substr(0, pick_pos(s));
    case 2: {  // splice: a prefix of one entry, a suffix of another
      const std::string& tail = rng.pick(seeds);
      return s.substr(0, pick_pos(s)) + tail.substr(pick_pos(tail));
    }
    case 3:  // token insertion at a random offset
      return s.insert(pick_pos(s), rng.pick(tokens));
    default: {  // random bytes
      std::string bytes(static_cast<std::size_t>(rng.uniform(256)), '\0');
      for (char& c : bytes) c = static_cast<char>(rng.uniform(256));
      return bytes;
    }
  }
}

TEST(FuzzReaders, JsonParseRejectsOrRoundTrips) {
  std::vector<std::string> seeds = corpus("bench/baselines/1core", ".json");
  seeds.push_back(read_text(std::filesystem::path(PROPSIM_SOURCE_DIR) /
                            "perfbench/workloads.json"));
  ASSERT_EQ(seeds.size(), 5u);
  const std::vector<std::string> tokens{
      "\"\\ud800\"", "\"\\udc00\"", "\"\\ud83d\\ude00\"", "1e999",
      "-1e-400",       "-0",           "1.5e+308",           "[",
      "{",             "]",            "}",                  ",",
      ":",             "\"",           "null",               "tru",
      std::string(300, '['), std::string(200, '{') + "\"k\":"};
  Rng rng(97);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string text = mutate(seeds, tokens, rng);
    std::string error;
    const auto parsed = Json::parse(text, &error);
    if (!parsed) {
      EXPECT_FALSE(error.empty());
      ++rejected;
      continue;
    }
    ++accepted;
    for (const int indent : {0, 2}) {
      const std::string dumped = parsed->dump(indent);
      const auto again = Json::parse(dumped);
      ASSERT_TRUE(again.has_value()) << "dump does not re-parse: " << dumped;
      EXPECT_EQ(again->dump(indent), dumped);
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(FuzzReaders, EdgeDumpReaderRejectsOrReloads) {
  const std::vector<std::string> seeds = corpus("tests/data/lint", ".edges");
  ASSERT_GE(seeds.size(), 10u);
  const std::vector<std::string> tokens{
      "nodes ",     "nodes 4\n", "4294967295",  "4294967296", "-1",
      "+1",         "0x10",      "18446744073709551615", "99999999999",
      " ",          "\n",        "#",           "\t",         "1e3",
      "3.5"};
  Rng rng(101);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string text = mutate(seeds, tokens, rng);
    SnapshotGraph snap;
    std::string error;
    if (!snapshot_from_edge_list(text, snap, &error)) {
      EXPECT_FALSE(error.empty());
      ++rejected;
      continue;
    }
    ++accepted;
    // An accepted dump reloads to the same snapshot once re-serialized.
    std::string again = "nodes " + std::to_string(snap.node_count) + "\n";
    for (const auto& [u, v] : snap.edges) {
      again += std::to_string(u) + " " + std::to_string(v) + "\n";
    }
    SnapshotGraph reloaded;
    ASSERT_TRUE(snapshot_from_edge_list(again, reloaded, nullptr)) << again;
    EXPECT_EQ(reloaded.node_count, snap.node_count);
    EXPECT_EQ(reloaded.edges, snap.edges);
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace propsim
