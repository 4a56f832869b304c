// A single contiguous typed column — the storage primitive behind both the
// raw telemetry streams (telemetry/columns.h) and TimeSeries.
//
// A Column<T> is a slice [data(), data() + size()) of a reference-counted
// buffer. The buffer is either *growable* (storage the column appends to)
// or *foreign*: a read-only range pinned by a shared keepalive — an mmap'd
// binary trace file, a derived-trace arena, or a sibling series' time axis.
// Copying a column shares its buffer, so copies of a SessionDataset, a
// TimeSeries or a DerivedTrace cost O(columns), not O(rows). The first
// write through a column whose buffer is shared or foreign clones the slice
// into a fresh growable buffer (copy-on-write at column granularity);
// loaded-and-only-read data is never copied. Dropping elements off the
// front advances the slice start and leaves a dead prefix in the buffer,
// which the next growth reclaims.
//
// Thread safety: distinct Column objects may be used from different threads
// even when they share a buffer, as with std::shared_ptr. A writer clones
// unless the reference count reads 1 with acquire ordering, which orders
// its writes after every other holder's last read of the buffer.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace domino {

template <typename T>
class Column {
  // Growable storage is allocated uninitialized and moved bytewise.
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Column() = default;
  Column(const Column& o) noexcept
      : buf_(o.buf_), begin_(o.begin_), end_(o.end_), lim_(o.lim_) {
    if (buf_ != nullptr) buf_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Column(Column&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        begin_(std::exchange(o.begin_, nullptr)),
        end_(std::exchange(o.end_, nullptr)),
        lim_(std::exchange(o.lim_, nullptr)) {}
  /// O(1) for copies and moves alike (copy-and-swap).
  Column& operator=(Column o) noexcept {
    std::swap(buf_, o.buf_);
    std::swap(begin_, o.begin_);
    std::swap(end_, o.end_);
    std::swap(lim_, o.lim_);
    return *this;
  }
  ~Column() { Release(); }

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(end_ - begin_);
  }
  [[nodiscard]] bool empty() const { return end_ == begin_; }
  [[nodiscard]] const T* data() const { return begin_; }
  [[nodiscard]] std::span<const T> span() const { return {begin_, end_}; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return begin_[i]; }
  [[nodiscard]] const T& front() const { return *begin_; }
  [[nodiscard]] const T& back() const { return end_[-1]; }
  /// True while the elements live in foreign storage (Adopt), i.e. until
  /// the first write.
  [[nodiscard]] bool borrowed() const {
    return buf_ != nullptr && buf_->keepalive != nullptr;
  }
  /// Elements the growable buffer under this column can hold, dead prefix
  /// included (0 for foreign storage): the memory a growing column pins.
  [[nodiscard]] std::size_t capacity() const {
    return buf_ != nullptr ? buf_->cap : 0;
  }

  void clear() {
    if (OwnsUniquely()) {
      begin_ = end_ = buf_->store;
    } else {
      Release();
    }
  }
  void reserve(std::size_t n) {
    if (OwnsUniquely()) {
      if (Offset() + n <= buf_->cap) return;
      if (n <= buf_->cap) {
        Compact();
        return;
      }
    }
    if (n > size()) Reallocate(n);
  }
  /// The hot append path (every cell of every tail poll and CSV load): one
  /// capacity test against lim_, which sits at end_ unless this column
  /// has growable storage left, then one uniqueness test.
  void push_back(T v) {
    if (end_ != lim_ && Unique(buf_)) [[likely]] {
      *Writable(end_++) = v;
      return;
    }
    Grow(v);
  }
  void Set(std::size_t i, T v) { MutData()[i] = v; }
  /// Whole-column mutable access (clones a shared or foreign buffer first).
  /// The span writes the buffer in place: finish writing through it before
  /// the column is next copied, or the copy shares those later writes.
  [[nodiscard]] std::span<T> mut() { return {MutData(), size()}; }
  /// Takes over `v`'s elements without copying them.
  void Assign(std::vector<T> v) {
    const std::size_t n = v.size();
    Install(new Buffer(std::move(v)), n);
  }

  /// Borrows `n` elements at `p`; `keepalive` (non-null) pins the backing
  /// buffer (an mmap'd file, a decoded arena, or a sibling column's
  /// storage). Zero-copy until the first write.
  void Adopt(std::shared_ptr<const void> keepalive, const T* p,
             std::size_t n) {
    assert(keepalive != nullptr);
    Release();
    buf_ = new Buffer(std::move(keepalive));
    begin_ = p;
    end_ = lim_ = p + n;
  }

  /// Borrows a shared vector outright (several columns sharing one axis).
  void Adopt(std::shared_ptr<const std::vector<T>> shared) {
    const T* p = shared->data();
    std::size_t n = shared->size();
    Adopt(std::shared_ptr<const void>(std::move(shared)), p, n);
  }

  /// Compaction: keeps element i iff keep[i] != 0, in order.
  void Keep(const std::vector<unsigned char>& keep) {
    assert(keep.size() == size());
    T* d = MutData();
    std::size_t w = 0;
    for (std::size_t i = 0; i < keep.size(); ++i) {
      if (keep[i]) d[w++] = d[i];
    }
    end_ = begin_ + w;
  }

  /// Front eviction: drops the first `n` elements, then each of the next
  /// keep.size() elements whose keep[i] is 0. Survivors keep their order
  /// and slide toward the back, so the elements past n + keep.size() never
  /// move; the slice start advances past everything dropped, and a later
  /// growth reclaims that dead prefix. O(keep.size()) element moves; a pure
  /// front drop (empty `keep`) moves nothing and never clones.
  void DropFront(std::size_t n, std::span<const unsigned char> keep = {}) {
    assert(n + keep.size() <= size());
    begin_ += n;
    if (keep.empty()) return;
    T* d = MutData();
    std::size_t w = keep.size();  // Survivors end up in [w, keep.size()).
    for (std::size_t i = keep.size(); i-- > 0;) {
      if (keep[i]) d[--w] = d[i];
    }
    begin_ += w;
  }

  /// Reorders the column to data[perm[0]], data[perm[1]], ...
  void Gather(const std::vector<std::uint32_t>& perm) {
    Buffer* b = new Buffer(perm.size());
    T* out = b->store;
    for (std::size_t i = 0; i < perm.size(); ++i) out[i] = begin_[perm[i]];
    Install(b, perm.size());
  }

  friend bool operator==(const Column& a, const Column& b) {
    return std::equal(a.begin_, a.end_, b.begin_, b.end_);
  }

 private:
  /// The reference-counted buffer. Growable storage is `cap` elements at
  /// `store`, owned by `grown` (allocated here, uninitialized) or by `vec`
  /// (a vector handed over by Assign). Foreign storage is pinned by
  /// `keepalive` instead, and `store` is null.
  struct Buffer {
    explicit Buffer(std::size_t n)
        : grown(n > 0 ? std::make_unique_for_overwrite<T[]>(n) : nullptr),
          store(grown.get()),
          cap(n) {}
    explicit Buffer(std::vector<T> v)
        : vec(std::move(v)), store(vec.data()), cap(vec.size()) {}
    explicit Buffer(std::shared_ptr<const void> k) : keepalive(std::move(k)) {}

    std::unique_ptr<T[]> grown;
    std::vector<T> vec;
    std::shared_ptr<const void> keepalive;
    T* store = nullptr;
    std::size_t cap = 0;
    std::atomic<std::size_t> refs{1};
  };

  /// Smallest growable buffer push_back allocates.
  static constexpr std::size_t kMinCapacity = 16;

  /// Acquire: a count of 1 orders what follows after the release of every
  /// other holder (std::shared_ptr::use_count is only a relaxed load).
  static bool Unique(const Buffer* b) {
    return b->refs.load(std::memory_order_acquire) == 1;
  }
  /// Growable storage only this column references: writable in place.
  /// Foreign buffers have no `store`, so they never qualify.
  [[nodiscard]] bool OwnsUniquely() const {
    return buf_ != nullptr && buf_->store != nullptr && Unique(buf_);
  }
  /// The slice of a growable buffer points into non-const storage; only a
  /// unique holder writes it.
  static T* Writable(const T* p) { return const_cast<T*>(p); }
  /// Dead prefix ahead of the slice in a growable buffer.
  [[nodiscard]] std::size_t Offset() const {
    return static_cast<std::size_t>(begin_ - buf_->store);
  }
  /// The slice, writable: clones first unless the buffer is ours alone.
  T* MutData() {
    if (!OwnsUniquely() && !empty()) Reallocate(size());
    return Writable(begin_);
  }
  /// Moves the slice to the start of our own buffer.
  void Compact() {
    T* s = buf_->store;
    end_ = std::copy(begin_, end_, s);
    begin_ = s;
  }
  /// Replaces the buffer with a private growable copy of the slice that
  /// has room for `cap` elements.
  void Reallocate(std::size_t cap) {
    Buffer* b = new Buffer(cap);
    std::copy(begin_, end_, b->store);
    Install(b, size());
  }
  /// Releases the current buffer; the column becomes `b`'s first `n`
  /// elements.
  void Install(Buffer* b, std::size_t n) {
    Release();
    buf_ = b;
    begin_ = b->store;
    end_ = begin_ + n;
    lim_ = begin_ + b->cap;
  }
  /// push_back's slow path: no buffer yet, a shared or foreign one, or a
  /// full one of ours. A full buffer whose dead prefix is at least a
  /// quarter of it is compacted in place; one with a smaller dead prefix
  /// (a column being evicted) grows by half, and one with none doubles, as
  /// a std::vector does. So a compaction moves at most three live elements
  /// per element it reclaims (amortised O(1) per evicted element), a column
  /// that is never front-dropped grows exactly as a vector would, no growth
  /// makes a buffer more than twice the elements it holds, and a column
  /// evicted as fast as it is appended stops growing.
  void Grow(T v) {
    if (!OwnsUniquely()) {
      Reallocate(std::max(2 * size(), kMinCapacity));
    } else if (Offset() > 0 && Offset() >= buf_->cap / 4) {
      Compact();
    } else {
      const std::size_t cap = buf_->cap;
      Reallocate(std::max(Offset() > 0 ? cap + cap / 2 : 2 * cap,
                          kMinCapacity));
    }
    *Writable(end_++) = v;
  }
  void Release() {
    if (buf_ != nullptr &&
        buf_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete buf_;
    }
    buf_ = nullptr;
    begin_ = end_ = lim_ = nullptr;
  }

  Buffer* buf_ = nullptr;
  const T* begin_ = nullptr;
  const T* end_ = nullptr;
  const T* lim_ = nullptr;  ///< Storage end when growable, else end_.
};

}  // namespace domino
