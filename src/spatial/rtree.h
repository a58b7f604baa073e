// An in-memory R-tree built by STR bulk loading, with the branch-and-bound
// searches required by the PNN filtering phase of [8]: finding the k
// smallest MAXDIST(q, X_i) (k = 1 gives f_min) and collecting every object
// whose MINDIST is within it. Datasets are static, so the tree has no
// dynamic insertion.
//
// The tree is templated on dimensionality and the leaf payload type so the
// same implementation indexes 1-D uncertainty intervals (the paper's focus)
// and 2-D regions (the extension).
#ifndef PVERIFY_SPATIAL_RTREE_H_
#define PVERIFY_SPATIAL_RTREE_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "spatial/mbr.h"

namespace pverify {

template <int Dim, typename Value>
class RTree {
 public:
  static constexpr size_t kMaxEntries = 16;

  struct Entry {
    Mbr<Dim> mbr;
    Value value;
  };

  RTree() = default;

  /// Sort-Tile-Recursive bulk load.
  static RTree BulkLoadSTR(std::vector<Entry> entries) {
    RTree tree;
    tree.size_ = entries.size();
    if (entries.empty()) return tree;

    // Pack leaves level by level until one node remains.
    std::vector<std::unique_ptr<Node>> level =
        PackLeaves(std::move(entries));
    while (level.size() > 1) {
      level = PackInternal(std::move(level));
    }
    tree.root_ = std::move(level.front());
    return tree;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Tree height (0 for an empty tree, 1 for a single leaf).
  int Height() const {
    int h = 0;
    for (const Node* n = root_.get(); n != nullptr;
         n = n->leaf ? nullptr : n->children.front().get()) {
      ++h;
    }
    return h;
  }

  /// Number of nodes (for structure diagnostics/tests).
  size_t NodeCount() const { return root_ ? CountNodes(root_.get()) : 0; }

  /// Invokes fn(mbr, value) for every entry intersecting `region`.
  void ForEachIntersecting(
      const Mbr<Dim>& region,
      const std::function<void(const Mbr<Dim>&, const Value&)>& fn) const {
    if (root_) ForEachIntersectingImpl(root_.get(), region, fn);
  }

  /// Collects the payloads of all entries intersecting `region`.
  std::vector<Value> CollectIntersecting(const Mbr<Dim>& region) const {
    std::vector<Value> out;
    ForEachIntersecting(region, [&out](const Mbr<Dim>&, const Value& v) {
      out.push_back(v);
    });
    return out;
  }

  /// The min(k, size()) smallest far distances over all entries,
  /// ascending — the k-th far point of the k-NN filter. `leaf_far(entry)`
  /// returns an entry's far distance from q (its exact region geometry,
  /// which the MBR only bounds); it is never below the entry's MBR
  /// MINDIST, so a node's MINDIST lower-bounds every far distance beneath
  /// it. Best-first on node MINDIST: the search stops once the next node's
  /// MINDIST exceeds the current k-th smallest far distance (widened by
  /// WidenForRounding, so rounding in the two metrics cannot cut an entry).
  template <typename LeafFar>
  std::vector<double> SmallestFarPoints(const std::array<double, Dim>& q,
                                        size_t k, LeafFar&& leaf_far) const {
    std::vector<double> best;  // max-heap of the k smallest so far
    if (!root_ || k == 0) return best;
    auto beyond = [&best, k](double mind) {
      return best.size() == k && mind > WidenForRounding(best.front());
    };
    using Item = std::pair<double, const Node*>;  // (mindist, node)
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    heap.emplace(root_->mbr.MinDist(q), root_.get());
    while (!heap.empty()) {
      auto [mind, node] = heap.top();
      heap.pop();
      if (beyond(mind)) break;  // every remaining node is at least as far
      if (node->leaf) {
        for (const Entry& e : node->entries) {
          const double far = leaf_far(e);
          if (best.size() < k) {
            best.push_back(far);
            std::push_heap(best.begin(), best.end());
          } else if (far < best.front()) {
            std::pop_heap(best.begin(), best.end());
            best.back() = far;
            std::push_heap(best.begin(), best.end());
          }
        }
      } else {
        for (const auto& child : node->children) {
          const double child_mind = child->mbr.MinDist(q);
          if (!beyond(child_mind)) heap.emplace(child_mind, child.get());
        }
      }
    }
    std::sort_heap(best.begin(), best.end());
    return best;
  }

  /// Payloads of the entries with leaf_min(entry) <= radius, the
  /// ball-overlap query that retrieves the candidate set. `leaf_min(entry)`
  /// returns an entry's near distance from q (its exact region geometry,
  /// which the MBR only bounds); it is never below the entry's MBR MINDIST
  /// beyond the rounding WidenForRounding covers, so nodes whose MINDIST
  /// exceeds the widened radius are skipped.
  template <typename LeafMin>
  std::vector<Value> WithinDistance(const std::array<double, Dim>& q,
                                    double radius, LeafMin&& leaf_min) const {
    std::vector<Value> out;
    if (!root_) return out;
    const double node_radius = WidenForRounding(radius);
    std::vector<const Node*> stack = {root_.get()};
    while (!stack.empty()) {
      const Node* node = stack.back();
      stack.pop_back();
      if (node->mbr.MinDist(q) > node_radius) continue;
      if (node->leaf) {
        for (const Entry& e : node->entries) {
          if (leaf_min(e) <= radius) out.push_back(e.value);
        }
      } else {
        for (const auto& child : node->children) {
          stack.push_back(child.get());
        }
      }
    }
    return out;
  }

  /// Entries whose MINDIST(q, entry) <= radius.
  std::vector<Value> WithinDistance(const std::array<double, Dim>& q,
                                    double radius) const {
    return WithinDistance(q, radius,
                          [&q](const Entry& e) { return e.mbr.MinDist(q); });
  }

  /// k nearest entries by MINDIST (best-first). Ties broken arbitrarily.
  std::vector<Value> NearestByMinDist(const std::array<double, Dim>& q,
                                      size_t k) const {
    std::vector<Value> out;
    if (!root_ || k == 0) return out;
    struct Item {
      double dist;
      const Node* node;   // nullptr when this is an entry
      const Entry* entry;
      bool operator>(const Item& o) const { return dist > o.dist; }
    };
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    heap.push({root_->mbr.MinDist(q), root_.get(), nullptr});
    while (!heap.empty() && out.size() < k) {
      Item item = heap.top();
      heap.pop();
      if (item.entry != nullptr) {
        out.push_back(item.entry->value);
      } else if (item.node->leaf) {
        for (const Entry& e : item.node->entries) {
          heap.push({e.mbr.MinDist(q), nullptr, &e});
        }
      } else {
        for (const auto& child : item.node->children) {
          heap.push({child->mbr.MinDist(q), child.get(), nullptr});
        }
      }
    }
    return out;
  }

  /// Verifies structural invariants (MBR containment, fanout bounds, uniform
  /// leaf depth); used by tests. Returns false on violation.
  bool CheckInvariants() const {
    if (!root_) return true;
    int leaf_depth = -1;
    return CheckNode(root_.get(), 0, &leaf_depth, /*is_root=*/true);
  }

 private:
  struct Node {
    explicit Node(bool is_leaf) : leaf(is_leaf) { mbr = Mbr<Dim>::Empty(); }
    bool leaf;
    Mbr<Dim> mbr;
    std::vector<Entry> entries;                   // leaf payloads
    std::vector<std::unique_ptr<Node>> children;  // internal children

    size_t Fanout() const { return leaf ? entries.size() : children.size(); }

    void RecomputeMbr() {
      mbr = Mbr<Dim>::Empty();
      if (leaf) {
        for (const Entry& e : entries) mbr.Expand(e.mbr);
      } else {
        for (const auto& c : children) mbr.Expand(c->mbr);
      }
    }
  };

  // --- STR bulk loading -----------------------------------------------

  template <typename Item>
  static void StrSort(std::vector<Item>& items,
                      const std::function<Mbr<Dim>(const Item&)>& mbr_of) {
    auto center = [&mbr_of](const Item& it, int d) {
      Mbr<Dim> m = mbr_of(it);
      return 0.5 * (m.lo[d] + m.hi[d]);
    };
    std::sort(items.begin(), items.end(),
              [&](const Item& a, const Item& b) {
                return center(a, 0) < center(b, 0);
              });
    if constexpr (Dim >= 2) {
      // Tile along x, sort tiles along y.
      size_t n = items.size();
      size_t per_node = kMaxEntries;
      size_t num_nodes = (n + per_node - 1) / per_node;
      size_t slices = static_cast<size_t>(
          std::ceil(std::sqrt(static_cast<double>(num_nodes))));
      size_t per_slice = slices == 0 ? n : (n + slices - 1) / slices;
      for (size_t s = 0; s * per_slice < n; ++s) {
        auto begin = items.begin() + static_cast<ptrdiff_t>(s * per_slice);
        auto end = items.begin() +
                   static_cast<ptrdiff_t>(std::min(n, (s + 1) * per_slice));
        std::sort(begin, end, [&](const Item& a, const Item& b) {
          return center(a, 1) < center(b, 1);
        });
      }
    }
  }

  static std::vector<std::unique_ptr<Node>> PackLeaves(
      std::vector<Entry> entries) {
    std::function<Mbr<Dim>(const Entry&)> mbr_of =
        [](const Entry& e) { return e.mbr; };
    StrSort(entries, mbr_of);
    std::vector<std::unique_ptr<Node>> leaves;
    for (size_t i = 0; i < entries.size(); i += kMaxEntries) {
      auto leaf = std::make_unique<Node>(/*leaf=*/true);
      size_t end = std::min(entries.size(), i + kMaxEntries);
      for (size_t j = i; j < end; ++j) {
        leaf->entries.push_back(std::move(entries[j]));
      }
      leaf->RecomputeMbr();
      leaves.push_back(std::move(leaf));
    }
    return leaves;
  }

  static std::vector<std::unique_ptr<Node>> PackInternal(
      std::vector<std::unique_ptr<Node>> level) {
    std::function<Mbr<Dim>(const std::unique_ptr<Node>&)> mbr_of =
        [](const std::unique_ptr<Node>& n) { return n->mbr; };
    StrSort(level, mbr_of);
    std::vector<std::unique_ptr<Node>> parents;
    for (size_t i = 0; i < level.size(); i += kMaxEntries) {
      auto parent = std::make_unique<Node>(/*leaf=*/false);
      size_t end = std::min(level.size(), i + kMaxEntries);
      for (size_t j = i; j < end; ++j) {
        parent->children.push_back(std::move(level[j]));
      }
      parent->RecomputeMbr();
      parents.push_back(std::move(parent));
    }
    return parents;
  }

  // --- misc --------------------------------------------------------------

  static void ForEachIntersectingImpl(
      const Node* node, const Mbr<Dim>& region,
      const std::function<void(const Mbr<Dim>&, const Value&)>& fn) {
    if (!node->mbr.Intersects(region)) return;
    if (node->leaf) {
      for (const Entry& e : node->entries) {
        if (e.mbr.Intersects(region)) fn(e.mbr, e.value);
      }
    } else {
      for (const auto& child : node->children) {
        ForEachIntersectingImpl(child.get(), region, fn);
      }
    }
  }

  static size_t CountNodes(const Node* node) {
    size_t n = 1;
    if (!node->leaf) {
      for (const auto& c : node->children) n += CountNodes(c.get());
    }
    return n;
  }

  bool CheckNode(const Node* node, int depth, int* leaf_depth,
                 bool is_root) const {
    if (node->Fanout() > kMaxEntries) return false;
    if (!is_root && node->Fanout() < 1) return false;
    if (node->leaf) {
      if (*leaf_depth == -1) *leaf_depth = depth;
      if (*leaf_depth != depth) return false;
      Mbr<Dim> agg = Mbr<Dim>::Empty();
      for (const Entry& e : node->entries) agg.Expand(e.mbr);
      for (int d = 0; d < Dim; ++d) {
        if (agg.lo[d] < node->mbr.lo[d] - 1e-9 ||
            agg.hi[d] > node->mbr.hi[d] + 1e-9) {
          return false;
        }
      }
      return true;
    }
    for (const auto& child : node->children) {
      if (!node->mbr.Contains(child->mbr)) return false;
      if (!CheckNode(child.get(), depth + 1, leaf_depth, false)) return false;
    }
    return true;
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

}  // namespace pverify

#endif  // PVERIFY_SPATIAL_RTREE_H_
