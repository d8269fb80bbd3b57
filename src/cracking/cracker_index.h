/// \file cracker_index.h
/// \brief The cracker index: an AVL tree over piece boundaries (§3.2).
///
/// A node (v, p) records the invariant "every position < p holds a value
/// < v, and every position >= p holds a value >= v". Consecutive nodes in
/// value order therefore delimit the *pieces* of the cracker column. Each
/// node owns the latch of the piece that starts at its position; the piece
/// before the first boundary is guarded by a head latch owned by the tree.
///
/// Thread-safety: the tree structure itself is protected externally (the
/// cracker column holds a shared_mutex); nodes are heap-allocated and never
/// freed before the tree dies, so latch pointers taken under the shared lock
/// stay valid after it is released (rotations relink nodes, they do not
/// destroy them).

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "storage/types.h"
#include "util/latch.h"

namespace holix {

/// Descriptor of one piece of a cracker column, as returned by lookups.
template <typename T>
struct PieceRef {
  size_t begin = 0;            ///< First position of the piece.
  size_t end = 0;              ///< One past the last position.
  RwSpinLatch* latch = nullptr;///< Latch guarding the piece.
  bool exact = false;          ///< Lookup key equals an existing boundary.
  std::optional<T> lo_value;   ///< Boundary value at begin (empty: -inf).
  std::optional<T> hi_value;   ///< Boundary value at end (empty: +inf).

  /// Number of positions in the piece.
  size_t size() const { return end - begin; }
};

/// AVL tree of cracker boundaries for one column.
template <typename T>
class CrackerIndex {
 public:
  /// One boundary. Nodes are stable in memory for the tree's lifetime.
  struct Node {
    T value;
    size_t pos;
    mutable RwSpinLatch latch;  ///< Guards the piece starting at pos.
    int height = 1;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;

    Node(T v, size_t p) : value(v), pos(p) {}
  };

  CrackerIndex() = default;
  CrackerIndex(const CrackerIndex&) = delete;
  CrackerIndex& operator=(const CrackerIndex&) = delete;

  /// Number of boundaries (pieces = boundaries + 1).
  size_t num_boundaries() const { return count_; }

  /// True when a boundary with exactly this value exists.
  bool HasBoundary(T value) const {
    const Node* n = root_.get();
    while (n != nullptr) {
      if (KeyTraits<T>::Eq(value, n->value)) return true;
      n = KeyTraits<T>::Less(value, n->value) ? n->left.get()
                                              : n->right.get();
    }
    return false;
  }

  /// Inserts boundary (value, pos). Inserting an existing value is a no-op.
  void Insert(T value, size_t pos) { InsertRec(root_, value, pos); }

  /// Finds the piece whose value range contains \p value.
  /// \param column_size  total number of rows (the end of the last piece).
  PieceRef<T> FindPiece(T value, size_t column_size) const {
    PieceRef<T> ref;
    ref.end = column_size;
    ref.latch = &head_latch_;
    const Node* n = root_.get();
    const Node* lower = nullptr;  // largest boundary value <= value
    const Node* upper = nullptr;  // smallest boundary value >  value
    while (n != nullptr) {
      if (!KeyTraits<T>::Less(value, n->value)) {
        lower = n;
        n = n->right.get();
      } else {
        upper = n;
        n = n->left.get();
      }
    }
    if (lower != nullptr) {
      ref.begin = lower->pos;
      ref.latch = &lower->latch;
      ref.lo_value = lower->value;
      ref.exact = KeyTraits<T>::Eq(lower->value, value);
    }
    if (upper != nullptr) {
      ref.end = upper->pos;
      ref.hi_value = upper->value;
    }
    return ref;
  }

  /// Finds the piece that contains row position \p pos. With empty pieces
  /// (equal boundary positions) the value-largest boundary at or below pos
  /// wins, so the returned piece is never empty unless the column is.
  PieceRef<T> FindPieceByPosition(size_t pos, size_t column_size) const {
    PieceRef<T> ref;
    ref.end = column_size;
    ref.latch = &head_latch_;
    const Node* n = root_.get();
    const Node* lower = nullptr;
    const Node* upper = nullptr;
    while (n != nullptr) {
      if (n->pos <= pos) {
        lower = n;
        n = n->right.get();
      } else {
        upper = n;
        n = n->left.get();
      }
    }
    if (lower != nullptr) {
      ref.begin = lower->pos;
      ref.latch = &lower->latch;
      ref.lo_value = lower->value;
    }
    if (upper != nullptr) {
      ref.end = upper->pos;
      ref.hi_value = upper->value;
    }
    return ref;
  }

  /// In-order (ascending value) visit of every boundary node: fn(Node&),
  /// or fn(const Node&) through a const tree, for readers (piece
  /// statistics, invariant checks) that only hold a shared tree lock.
  template <typename Fn>
  void ForEachBoundary(Fn&& fn) {
    InOrder(root_.get(), fn);
  }
  template <typename Fn>
  void ForEachBoundary(Fn&& fn) const {
    InOrder(static_cast<const Node*>(root_.get()), fn);
  }

  /// Collects boundary nodes in ascending value order.
  std::vector<Node*> CollectBoundaries() {
    std::vector<Node*> nodes;
    nodes.reserve(count_);
    ForEachBoundary([&](Node& n) { nodes.push_back(&n); });
    return nodes;
  }

  /// Latch of the piece that precedes the first boundary.
  RwSpinLatch& head_latch() const { return head_latch_; }

  /// Removes every boundary (piece structure resets to one piece).
  void Clear() {
    root_.reset();
    count_ = 0;
  }

 private:
  static int Height(const std::unique_ptr<Node>& n) {
    return n ? n->height : 0;
  }

  static void Update(std::unique_ptr<Node>& n) {
    n->height = 1 + std::max(Height(n->left), Height(n->right));
  }

  static void RotateRight(std::unique_ptr<Node>& n) {
    std::unique_ptr<Node> l = std::move(n->left);
    n->left = std::move(l->right);
    Update(n);
    l->right = std::move(n);
    n = std::move(l);
    Update(n);
  }

  static void RotateLeft(std::unique_ptr<Node>& n) {
    std::unique_ptr<Node> r = std::move(n->right);
    n->right = std::move(r->left);
    Update(n);
    r->left = std::move(n);
    n = std::move(r);
    Update(n);
  }

  static void Rebalance(std::unique_ptr<Node>& n) {
    Update(n);
    const int balance = Height(n->left) - Height(n->right);
    if (balance > 1) {
      if (Height(n->left->left) < Height(n->left->right)) {
        RotateLeft(n->left);
      }
      RotateRight(n);
    } else if (balance < -1) {
      if (Height(n->right->right) < Height(n->right->left)) {
        RotateRight(n->right);
      }
      RotateLeft(n);
    }
  }

  void InsertRec(std::unique_ptr<Node>& n, T value, size_t pos) {
    if (!n) {
      n = std::make_unique<Node>(value, pos);
      ++count_;
      return;
    }
    if (KeyTraits<T>::Eq(value, n->value)) return;  // boundary already present
    if (KeyTraits<T>::Less(value, n->value)) {
      InsertRec(n->left, value, pos);
    } else {
      InsertRec(n->right, value, pos);
    }
    Rebalance(n);
  }

  /// The one in-order walk; \p N is Node or const Node.
  template <typename N, typename Fn>
  static void InOrder(N* n, Fn& fn) {
    if (n == nullptr) return;
    InOrder(static_cast<N*>(n->left.get()), fn);
    fn(*n);
    InOrder(static_cast<N*>(n->right.get()), fn);
  }

  std::unique_ptr<Node> root_;
  size_t count_ = 0;
  mutable RwSpinLatch head_latch_;
};

}  // namespace holix
