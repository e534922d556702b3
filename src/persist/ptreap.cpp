#include "persist/ptreap.hpp"

#include <algorithm>
#include <atomic>
#include <new>
#include <type_traits>

#include "parallel/work_depth.hpp"

namespace thsr {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

// Block storage is left uninitialized: make() writes every field of a node
// before its index is published, and PNode is an implicit-lifetime
// aggregate, so the raw allocation already holds its nodes. Constructing
// all 2^14 nodes up front would write the whole block — megabytes per fresh
// arena — where a small solve touches only its first few pages.
static_assert(std::is_aggregate_v<PNode> && std::is_trivially_destructible_v<PNode>);

struct PArena::Block {
  struct FreeNodes {
    void operator()(PNode* p) const noexcept {
      ::operator delete[](p, std::align_val_t{alignof(PNode)});
    }
  };

  explicit Block(u32 block_id) : id(block_id) {}
  const u32 id;  ///< block-table slot; fixed for the block's lifetime
  std::unique_ptr<PNode[], FreeNodes> mem{static_cast<PNode*>(
      ::operator new[](sizeof(PNode) * kBlockNodes, std::align_val_t{alignof(PNode)}))};
};

struct PArena::ThreadSlot {
  explicit ThreadSlot(u64 owner_token) : owner(owner_token) {}
  const u64 owner;                ///< token of the thread that allocates from it
  u32 base{0};                    ///< current block's id << kLog2BlockNodes
  u32 used{kBlockNodes};          ///< force a fresh block on first alloc
  std::atomic<u64> allocated{0};  ///< written by the owner only; read under mu_
};

/// The calling thread's one-entry slot cache. Arena ids and thread tokens
/// are never recycled, so an entry left behind by a destroyed arena can
/// never match a live one and its dangling slot pointer is never followed.
struct PArena::SlotCache {
  u64 arena{0};               ///< id of the arena `slot` belongs to; 0 = empty
  ThreadSlot* slot{nullptr};  ///< this thread's slot in that arena
  u64 token{0};               ///< this thread's identity in slot tables; 0 = not drawn
};

u64 PArena::next_id() noexcept {
  static std::atomic<u64> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

PArena::SlotCache& PArena::slot_cache() noexcept {
  thread_local SlotCache c;  // constant-initialized: no guard on access
  return c;
}

std::size_t PArena::cached_slots_this_thread() noexcept {
  return slot_cache().arena != 0 ? 1 : 0;
}

PArena::PArena() : table_(new PNode*[kMaxBlocks]) {}

PArena::~PArena() {
  for (Block* b : blocks_) delete b;
  for (ThreadSlot* s : slots_) delete s;
}

PArena::ThreadSlot& PArena::local_slot() {
  SlotCache& c = slot_cache();
  if (c.arena == id_) [[likely]] return *c.slot;
  // Miss: find this thread's slot among the arena's own, or open one.
  // Tokens come from the arena-id sequence: unique across threads, unlike
  // std::thread::id, which a later thread may inherit.
  if (c.token == 0) c.token = next_id();
  ThreadSlot* mine = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (ThreadSlot* s : slots_) {
      if (s->owner == c.token) {
        mine = s;
        break;
      }
    }
    if (!mine) {
      mine = new ThreadSlot(c.token);
      slots_.push_back(mine);
    }
  }
  c.arena = id_;
  c.slot = mine;
  return *mine;
}

u32 PArena::alloc() {
  ThreadSlot& s = local_slot();
  if (s.used == kBlockNodes) {
    Block* b = nullptr;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!free_.empty()) {
        b = free_.back();
        free_.pop_back();
      } else {
        THSR_CHECK(blocks_.size() < kMaxBlocks);
        b = new Block(static_cast<u32>(blocks_.size()));
        table_[b->id] = b->mem.get();  // write-once: the slot never moves
        blocks_.push_back(b);
      }
    }
    s.base = b->id << kLog2BlockNodes;
    s.used = 0;
  }
  // Only the owning thread writes `allocated`, so a relaxed load and store
  // suffice: no lock-prefixed read-modify-write on the per-node path.
  s.allocated.store(s.allocated.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  work::count(Op::TreapNode);
  return s.base | s.used++;
}

void PArena::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  // Rewind every slot: partially filled blocks go back on the free list
  // with everything else, and the owning threads re-acquire blocks on
  // their next alloc(). Callers guarantee no alloc() runs concurrently.
  for (ThreadSlot* s : slots_) {
    s->base = 0;
    s->used = kBlockNodes;
  }
  free_ = blocks_;
}

u64 PArena::node_count() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  u64 total = 0;
  for (const ThreadSlot* s : slots_) total += s->allocated.load(std::memory_order_relaxed);
  return total;
}

u64 PArena::allocated() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size();
}

u64 PArena::footprint_bytes() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return blocks_.size() * (sizeof(Block) + sizeof(PNode) * kBlockNodes);
}

std::size_t PArena::thread_slots() const noexcept {
  std::lock_guard<std::mutex> lk(mu_);
  return slots_.size();
}

// ---------------------------------------------------------------------------
// Treap
// ---------------------------------------------------------------------------

namespace ptreap {
namespace {

u64 mix(u64 x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

u64 content_prio(const PieceData& p) noexcept {
  return mix(mix(static_cast<u64>(p.edge)) ^ mix(static_cast<u64>(p.y0.p)) ^
             mix(static_cast<u64>(p.y0.q) * 0x517cc1b727220a95ull));
}

// Total order on priorities; "greater" wins the root (ties broken by content
// so the shape is a pure function of the piece set).
bool prio_less(const PNode& a, const PNode& b) noexcept {
  if (a.prio != b.prio) return a.prio < b.prio;
  if (a.piece.edge != b.piece.edge) return a.piece.edge < b.piece.edge;
  return cmp(a.piece.y0, b.piece.y0) < 0;
}

float widen_lo(double v) noexcept { return static_cast<float>(v - 0.5); }
float widen_hi(double v) noexcept { return static_cast<float>(v + 0.5); }

Ref make(PArena& a, Ref l, Ref r, const PieceData& p, std::span<const Seg2> segs) {
  const u32 i = a.alloc();
  PNode& n = a.node_mut(i);
  n.l = l.index();
  n.r = r.index();
  n.piece = p;
  n.prio = content_prio(p);
  n.count = 1 + (l ? l->count : 0) + (r ? r->count : 0);
  const Seg2& s = resolve_seg(segs, p.edge);
  const double z0 = s.approx_at(p.y0), z1 = s.approx_at(p.y1);
  n.zlo = widen_lo(std::min(z0, z1));
  n.zhi = widen_hi(std::max(z0, z1));
  if (l) {
    n.zlo = std::min(n.zlo, l->zlo);
    n.zhi = std::max(n.zhi, l->zhi);
  }
  if (r) {
    n.zlo = std::min(n.zlo, r->zlo);
    n.zhi = std::max(n.zhi, r->zhi);
  }
  return Ref(&a, i);
}

// Rebuild a path-copy of `t` with new children (same piece => same prio).
Ref rebuild(PArena& a, Ref t, Ref l, Ref r, std::span<const Seg2> segs) {
  return make(a, l, r, t->piece, segs);
}

Ref join(PArena& a, Ref x, Ref y, std::span<const Seg2> segs) {
  if (!x) return y;
  if (!y) return x;
  if (prio_less(*y, *x)) return rebuild(a, x, x.left(), join(a, x.right(), y, segs), segs);
  return rebuild(a, y, join(a, x, y.left(), segs), y.right(), segs);
}

Ref leaf(PArena& a, const PieceData& p, std::span<const Seg2> segs) {
  THSR_DCHECK(p.y0 < p.y1);
  return make(a, Ref{}, Ref{}, p, segs);
}

// Split by start key: L gets pieces with y0 < y, R the rest (no cutting).
void split_key(PArena& a, Ref t, const QY& y, Ref& l, Ref& r, std::span<const Seg2> segs) {
  if (!t) {
    l = r = Ref{};
    return;
  }
  if (cmp(t->piece.y0, y) < 0) {
    Ref rl;
    split_key(a, t.right(), y, rl, r, segs);
    l = rebuild(a, t, t.left(), rl, segs);
  } else {
    Ref lr;
    split_key(a, t.left(), y, l, lr, segs);
    r = rebuild(a, t, lr, t.right(), segs);
  }
}

// Remove the maximum-key piece; returns the remaining tree via `rest`.
PieceData remove_last(PArena& a, Ref t, Ref& rest, std::span<const Seg2> segs) {
  THSR_CHECK(bool(t));
  if (!t.right()) {
    rest = t.left();
    return t->piece;
  }
  Ref rr;
  const PieceData p = remove_last(a, t.right(), rr, segs);
  rest = rebuild(a, t, t.left(), rr, segs);
  return p;
}

// Split cutting pieces: L covers (-inf, y), R covers [y, +inf).
void split_at(PArena& a, Ref t, const QY& y, Ref& l, Ref& r, std::span<const Seg2> segs) {
  split_key(a, t, y, l, r, segs);
  if (!l) return;
  // The last piece of L may straddle y.
  Ref rest;
  // Peek cheaply: descend to max.
  Ref m = l;
  while (m.right()) m = m.right();
  if (cmp(m->piece.y1, y) <= 0) return;  // no straddle
  const PieceData p = remove_last(a, l, rest, segs);
  l = rest;
  if (cmp(p.y0, y) < 0) l = join(a, l, leaf(a, PieceData{p.y0, y, p.edge}, segs), segs);
  if (cmp(y, p.y1) < 0) r = join(a, leaf(a, PieceData{y, p.y1, p.edge}, segs), r, segs);
}

}  // namespace

Ref make_floor(PArena& a) {
  return leaf(a, PieceData{QY::of(-kMaxCoord), QY::of(kMaxCoord), kFloorEdge}, {});
}

Ref from_pieces(PArena& a, std::span<const PieceData> pieces, std::span<const Seg2> segs) {
  Ref t;
  for (const PieceData& p : pieces) t = join(a, t, leaf(a, p, segs), segs);
  return t;
}

Ref replace_range(PArena& a, Ref t, const QY& lo, const QY& hi, std::span<const PieceData> run,
                  std::span<const Seg2> segs) {
  THSR_DCHECK(lo < hi);
  Ref left, mid, middle_right, right;
  split_at(a, t, lo, left, mid, segs);
  split_at(a, mid, hi, middle_right, right, segs);
  (void)middle_right;  // covered interior of the old version: dropped wholesale
  Ref run_t;
  for (const PieceData& p : run) {
    THSR_DCHECK(cmp(p.y0, lo) >= 0 && cmp(p.y1, hi) <= 0);
    run_t = join(a, run_t, leaf(a, p, segs), segs);
  }
  return join(a, join(a, left, run_t, segs), right, segs);
}

const PieceData* piece_at(Ref t, const QY& y, Side side) noexcept {
  while (t) {
    const PieceData& p = t->piece;
    const int c0 = cmp(y, p.y0);
    const int c1 = cmp(y, p.y1);
    const bool inside = side == Side::After ? (c0 >= 0 && c1 < 0) : (c0 > 0 && c1 <= 0);
    if (inside) return &p;
    if (side == Side::After ? c0 < 0 : c0 <= 0) {
      t = t.left();
    } else {
      t = t.right();
    }
  }
  return nullptr;
}

u32 count(Ref t) noexcept { return t ? t->count : 0; }

void collect(Ref t, std::vector<PieceData>& out) {
  if (!t) return;
  collect(t.left(), out);
  out.push_back(t->piece);
  collect(t.right(), out);
}

Envelope materialize(Ref t, bool drop_floor) {
  std::vector<PieceData> pieces;
  pieces.reserve(count(t));
  collect(t, pieces);
  std::vector<EnvPiece> out;
  out.reserve(pieces.size());
  for (const PieceData& p : pieces) {
    if (drop_floor && p.edge == kFloorEdge) continue;
    if (!out.empty() && out.back().edge == p.edge && out.back().y1 == p.y0) {
      out.back().y1 = p.y1;
    } else {
      out.push_back({p.y0, p.y1, p.edge});
    }
  }
  return Envelope::from_pieces(std::move(out));
}

namespace {

void validate_rec(Ref t, std::span<const Seg2> segs, const QY*& prev_end, u64 max_prio_seen) {
  if (!t) return;
  THSR_CHECK(t->prio <= max_prio_seen || max_prio_seen == ~u64{0});
  validate_rec(t.left(), segs, prev_end, t->prio);
  THSR_CHECK(t->piece.y0 < t->piece.y1);
  if (prev_end) THSR_CHECK(*prev_end == t->piece.y0);  // contiguity (full coverage)
  const Seg2& s = resolve_seg(segs, t->piece.edge);
  THSR_CHECK(cmp(t->piece.y0, s.u0) >= 0 && cmp(t->piece.y1, s.u1) <= 0);
  prev_end = &t->piece.y1;
  validate_rec(t.right(), segs, prev_end, t->prio);
}

}  // namespace

void validate(Ref t, std::span<const Seg2> segs) {
  const QY* prev = nullptr;
  validate_rec(t, segs, prev, ~u64{0});
}

}  // namespace ptreap
}  // namespace thsr
