// Pass 4: concurrency discipline from the src/common/annotations.h macros.
//
//   conc-guarded-by    a field tagged SDS_GUARDED_BY(mu) may only be touched
//                      by methods of its class that hold `mu` (a RAII guard
//                      naming it, mu.lock(), or SDS_ASSERT_HELD(mu));
//                      constructors/destructors are exempt (no concurrent
//                      access before/after the object's lifetime).
//   conc-shard-owned   a field tagged SDS_SHARD_OWNED documents single-thread
//                      shard affinity; a method that acquires ANY lock while
//                      touching it is mixing the two ownership disciplines
//                      (and a field can't be both guarded and shard-owned).
//   conc-lock-order    member-mutex acquisition order must form a DAG across
//                      the whole program; a cycle is a latent deadlock.
//                      std::scoped_lock's multi-arg form orders internally,
//                      so it contributes no edges among its own arguments.
//                      Function-local mutexes are skipped — they cannot
//                      participate in a cross-function deadlock.
//
// Field accesses are not part of the FileSummary IR (recording every member
// token would bloat every summary for one rule); instead this pass lazily
// re-reads only the files that define methods of annotated classes.
#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sdslint/passes.h"
#include "sdslint/source.h"

namespace sdslint {
namespace {

struct ClassFields {
  std::vector<const FieldDecl*> guarded;
  std::vector<const FieldDecl*> shard_owned;
};

struct LockEdge {
  FileSummary* file;
  int line;
};

void CheckMethods(PassContext& ctx,
                  const std::map<std::string, ClassFields>& classes) {
  std::map<std::string, SourceText> bodies;  // lazily loaded, per path
  for (FileSummary* f : ctx.files) {
    for (std::size_t k = 0; k < f->functions.size(); ++k) {
      const FunctionSym& fn = f->functions[k];
      if (!fn.is_definition || fn.body_begin <= 0) continue;
      auto cit = classes.find(fn.class_name);
      if (cit == classes.end()) continue;
      const bool is_ctor_dtor =
          fn.name == fn.class_name || fn.name == "~" + fn.class_name;

      // Lock evidence for this method.
      std::set<std::string> held;
      bool acquires_any = false;
      for (const LockOp& op : f->locks) {
        if (op.func != static_cast<int>(k)) continue;
        held.insert(op.args.begin(), op.args.end());
        if (!op.assert_held) acquires_any = true;
      }

      auto bit = bodies.find(f->path);
      if (bit == bodies.end()) {
        SourceText text;
        if (!LoadSource(f->path, &text)) continue;
        bit = bodies.emplace(f->path, std::move(text)).first;
      }
      const SourceText& text = bit->second;

      auto first_access = [&](const std::string& name) -> int {
        const std::size_t begin = static_cast<std::size_t>(fn.body_begin) - 1;
        const std::size_t end =
            std::min(static_cast<std::size_t>(fn.body_end), text.code.size());
        for (std::size_t i = begin; i < end; ++i) {
          if (HasToken(text.code[i], name)) return static_cast<int>(i) + 1;
        }
        return 0;
      };

      for (const FieldDecl* field : cit->second.guarded) {
        if (is_ctor_dtor) break;
        if (held.count(field->guarded_by) != 0) continue;
        const int line = first_access(field->name);
        if (line == 0) continue;
        ctx.emit(*f, line, kRuleConcGuardedBy,
                 "field '" + field->name + "' is SDS_GUARDED_BY(" +
                     field->guarded_by + ") but " + fn.class_name +
                     "::" + fn.name + " accesses it without holding '" +
                     field->guarded_by +
                     "' (no lock_guard/unique_lock/scoped_lock on it and no "
                     "SDS_ASSERT_HELD in the method)");
      }
      for (const FieldDecl* field : cit->second.shard_owned) {
        if (!acquires_any) break;
        const int line = first_access(field->name);
        if (line == 0) continue;
        ctx.emit(*f, line, kRuleConcShardOwned,
                 "field '" + field->name + "' is SDS_SHARD_OWNED "
                 "(single-thread shard affinity) but " + fn.class_name +
                     "::" + fn.name +
                     " acquires a lock; shard-owned state must never be "
                     "shared across threads — drop the annotation or the "
                     "lock");
      }
    }
  }
}

void CheckLockOrder(PassContext& ctx,
                    const std::set<std::string>& durable_mutexes) {
  // Acquisition-order digraph: a -> b when b is acquired while a is held
  // (approximated as "a acquired earlier in the same function" — guards in
  // this codebase live to end of scope). First witness kept for the report.
  std::map<std::string, std::map<std::string, LockEdge>> graph;
  for (FileSummary* f : ctx.files) {
    // Group this file's acquisitions by function, in line order (the
    // summary records them in token order already).
    std::map<int, std::vector<const LockOp*>> by_func;
    for (const LockOp& op : f->locks) {
      if (op.assert_held || op.func < 0) continue;
      by_func[op.func].push_back(&op);
    }
    for (const auto& [func, ops] : by_func) {
      for (std::size_t j = 1; j < ops.size(); ++j) {
        for (std::size_t i = 0; i < j; ++i) {
          for (const std::string& a : ops[i]->args) {
            if (durable_mutexes.count(a) == 0) continue;
            for (const std::string& b : ops[j]->args) {
              if (a == b || durable_mutexes.count(b) == 0) continue;
              graph[a].emplace(b, LockEdge{f, ops[j]->line});
            }
          }
        }
      }
    }
  }

  // Cycle detection: three-color DFS; each back edge closes a cycle and is
  // reported at its first witness.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;
  std::set<std::pair<std::string, std::string>> reported;

  std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        color[node] = 1;
        stack.push_back(node);
        auto git = graph.find(node);
        if (git != graph.end()) {
          for (const auto& [next, edge] : git->second) {
            if (color[next] == 1) {
              if (!reported.insert({node, next}).second) continue;
              // The gray path from `next` to `node` plus this edge is the cycle.
              std::string cycle = "'" + next + "'";
              bool in_cycle = false;
              for (const std::string& s : stack) {
                if (s == next) in_cycle = true;
                if (in_cycle && s != next) cycle += " -> '" + s + "'";
              }
              cycle += " -> '" + next + "'";
              ctx.emit(*edge.file, edge.line, kRuleConcLockOrder,
                       "lock-order cycle: " + cycle +
                           " (this acquisition closes the cycle); acquire "
                           "member mutexes in one global order or take them "
                           "together with std::scoped_lock");
            } else if (color[next] == 0) {
              visit(next);
            }
          }
        }
        stack.pop_back();
        color[node] = 2;
      };
  for (const auto& [node, _] : graph) {
    if (color[node] == 0) visit(node);
  }
}

}  // namespace

void RunConcPass(PassContext& ctx) {
  std::map<std::string, ClassFields> classes;
  std::set<std::string> durable_mutexes;  // member / namespace-scope mutexes
  for (FileSummary* f : ctx.files) {
    for (const FieldDecl& field : f->fields) {
      if (field.is_mutex) durable_mutexes.insert(field.name);
      if (field.class_name.empty()) continue;
      ClassFields& cf = classes[field.class_name];
      if (!field.guarded_by.empty()) cf.guarded.push_back(&field);
      if (field.shard_owned) cf.shard_owned.push_back(&field);
      if (field.shard_owned && !field.guarded_by.empty()) {
        ctx.emit(*f, field.line, kRuleConcShardOwned,
                 "field '" + field.name +
                     "' is both SDS_GUARDED_BY and SDS_SHARD_OWNED; the two "
                     "ownership disciplines are mutually exclusive — pick "
                     "one");
      }
    }
  }
  // Drop classes with nothing annotated before the method sweep.
  for (auto it = classes.begin(); it != classes.end();) {
    if (it->second.guarded.empty() && it->second.shard_owned.empty()) {
      it = classes.erase(it);
    } else {
      ++it;
    }
  }
  if (!classes.empty()) CheckMethods(ctx, classes);
  if (!durable_mutexes.empty()) CheckLockOrder(ctx, durable_mutexes);
}

}  // namespace sdslint
