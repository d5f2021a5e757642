#include "util/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "util/json.hpp"

namespace emc::util {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One call-path node of a thread's span tree. Counts are relaxed
/// atomics so aggregation can read them while the owner thread updates;
/// the child list is only mutated under the owning buffer's mutex.
struct Node {
  explicit Node(const char* n, Node* p) : name(n), parent(p) {}
  const char* name;
  Node* parent;
  std::vector<std::unique_ptr<Node>> children;
  std::atomic<std::int64_t> calls{0};
  std::atomic<std::int64_t> inclusive_ns{0};
};

/// Per-thread span tree. The owner thread walks/updates it lock-free;
/// the mutex serializes the only cross-thread interactions: child
/// creation vs. aggregation traversal.
struct ThreadBuf {
  std::mutex mutex;
  Node root{"", nullptr};
  Node* current = &root;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuf>> buffers;
};

std::atomic<bool> g_enabled{false};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives thread exits
  return *r;
}

ThreadBuf& thread_buf() {
  thread_local std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

Node* child_named(ThreadBuf& buf, Node* parent, const char* name) {
  for (const auto& c : parent->children) {
    // Identical literals usually share an address; strcmp catches the
    // same name spelled in different translation units.
    if (c->name == name || std::strcmp(c->name, name) == 0) {
      return c.get();
    }
  }
  std::lock_guard<std::mutex> lock(buf.mutex);
  parent->children.push_back(std::make_unique<Node>(name, parent));
  return parent->children.back().get();
}

struct Agg {
  const char* name = "";
  int depth = 0;
  std::int64_t calls = 0;
  std::int64_t inclusive_ns = 0;
  std::int64_t children_ns = 0;
  std::map<std::string, Agg> children;
};

void merge_node(Agg& agg, const Node& node, int depth) {
  agg.name = node.name;
  agg.depth = depth;
  agg.calls += node.calls.load(std::memory_order_relaxed);
  agg.inclusive_ns += node.inclusive_ns.load(std::memory_order_relaxed);
  for (const auto& c : node.children) {
    merge_node(agg.children[c->name], *c, depth + 1);
  }
}

std::int64_t subtree_calls(const Agg& agg) {
  std::int64_t total = agg.calls;
  for (const auto& [name, child] : agg.children) {
    total += subtree_calls(child);
  }
  return total;
}

void flatten(const Agg& agg, const std::string& prefix,
             std::vector<ProfileSpanStats>& out) {
  std::int64_t children_ns = 0;
  for (const auto& [name, child] : agg.children) {
    children_ns += child.inclusive_ns;
  }
  if (agg.depth > 0) {
    ProfileSpanStats s;
    s.path = prefix;
    s.name = agg.name;
    s.depth = agg.depth;
    s.calls = agg.calls;
    s.inclusive_s = static_cast<double>(agg.inclusive_ns) * 1e-9;
    s.exclusive_s =
        static_cast<double>(std::max<std::int64_t>(
            0, agg.inclusive_ns - children_ns)) *
        1e-9;
    out.push_back(std::move(s));
  }
  for (const auto& [name, child] : agg.children) {
    // Structure survives reset() (open spans still need their nodes),
    // so never-since-recorded subtrees are pruned from reports.
    if (subtree_calls(child) == 0) continue;
    flatten(child, prefix.empty() ? name : prefix + "/" + name, out);
  }
}

void reset_node(Node& node) {
  node.calls.store(0, std::memory_order_relaxed);
  node.inclusive_ns.store(0, std::memory_order_relaxed);
  for (const auto& c : node.children) reset_node(*c);
}

}  // namespace

Profiler& Profiler::global() {
  static Profiler* p = new Profiler();
  return *p;
}

void Profiler::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Profiler::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void Profiler::reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    reset_node(buf->root);
  }
}

std::vector<ProfileSpanStats> Profiler::aggregate() const {
  Agg root;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (const auto& buf : r.buffers) {
      std::lock_guard<std::mutex> buf_lock(buf->mutex);
      merge_node(root, buf->root, 0);
    }
  }
  std::vector<ProfileSpanStats> out;
  flatten(root, "", out);
  return out;
}

void Profiler::write_text(std::ostream& out) const {
  const std::vector<ProfileSpanStats> spans = aggregate();
  out << "profile (" << spans.size() << " span paths)\n";
  for (const ProfileSpanStats& s : spans) {
    for (int i = 1; i < s.depth; ++i) out << "  ";
    out << s.name << "  calls=" << s.calls << " incl="
        << s.inclusive_s << "s excl=" << s.exclusive_s << "s\n";
  }
}

void Profiler::write_json(std::ostream& out) const {
  const std::vector<ProfileSpanStats> spans = aggregate();
  JsonWriter json(out);
  json.begin_object();
  json.field("enabled", enabled());
  json.begin_array("spans");
  for (const ProfileSpanStats& s : spans) {
    json.begin_object();
    json.field("path", s.path);
    json.field("name", s.name);
    json.field("depth", s.depth);
    json.field("calls", s.calls);
    json.field("inclusive_s", s.inclusive_s);
    json.field("exclusive_s", s.exclusive_s);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

ProfileSpan::ProfileSpan(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuf& buf = thread_buf();
  Node* node = child_named(buf, buf.current, name);
  buf.current = node;
  node_ = node;
  start_ns_ = now_ns();
}

ProfileSpan::~ProfileSpan() {
  if (node_ == nullptr) return;
  Node* node = static_cast<Node*>(node_);
  const std::int64_t elapsed = now_ns() - start_ns_;
  node->calls.fetch_add(1, std::memory_order_relaxed);
  node->inclusive_ns.fetch_add(std::max<std::int64_t>(0, elapsed),
                               std::memory_order_relaxed);
  thread_buf().current = node->parent;
}

}  // namespace emc::util
