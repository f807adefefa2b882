// Fixed-capacity circular buffer.
//
// Used for transport-delay lines (the I2C lag model), moving-average
// filters, and windowed oscillation analysis.  Capacity is fixed at
// construction; pushing into a full buffer evicts the oldest element.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace fsc {

/// Bounded FIFO with O(1) push/pop and random access from the oldest
/// element.  Not thread-safe; the simulator is single-threaded by design.
template <typename T>
class RingBuffer {
 public:
  /// Create a buffer holding at most `capacity` elements.
  /// Throws std::invalid_argument when capacity == 0.
  explicit RingBuffer(std::size_t capacity) : storage_(capacity) {
    if (capacity == 0) throw std::invalid_argument("RingBuffer capacity must be > 0");
  }

  /// Number of elements currently stored.
  std::size_t size() const noexcept { return size_; }

  /// Maximum number of elements.
  std::size_t capacity() const noexcept { return storage_.size(); }

  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == storage_.size(); }

  /// Append `value`; when full, the oldest element is dropped first.
  void push(const T& value) {
    storage_[wrap(head_ + size_)] = value;
    if (full()) {
      head_ = wrap(head_ + 1);
    } else {
      ++size_;
    }
  }

  /// Remove and return the oldest element.
  /// Throws std::out_of_range when empty.
  T pop() {
    if (empty()) throw std::out_of_range("RingBuffer::pop on empty buffer");
    T value = storage_[head_];
    head_ = wrap(head_ + 1);
    --size_;
    return value;
  }

  /// Oldest element (next to be popped).  Throws std::out_of_range when empty.
  const T& front() const {
    if (empty()) throw std::out_of_range("RingBuffer::front on empty buffer");
    return storage_[head_];
  }

  /// Newest element (most recently pushed).  Throws std::out_of_range when empty.
  const T& back() const {
    if (empty()) throw std::out_of_range("RingBuffer::back on empty buffer");
    return storage_[wrap(head_ + size_ - 1)];
  }

  /// Element `i` counted from the oldest (0 == front).
  /// Throws std::out_of_range when i >= size().
  const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("RingBuffer::at index out of range");
    return storage_[wrap(head_ + i)];
  }

  /// Drop all elements; capacity is unchanged.
  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Storage slot of position `index`, which is always below twice the
  /// capacity (head_ < capacity, offsets <= size_ <= capacity): one
  /// compare and subtract instead of a 64-bit divide.
  std::size_t wrap(std::size_t index) const noexcept {
    return index >= storage_.size() ? index - storage_.size() : index;
  }

  std::vector<T> storage_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace fsc
