// Bounded binary (de)serialization for the durable payloads: checkpoint
// snapshots and admission-journal run specs.
//
// ByteWriter appends fixed-width little-endian fields to a growable
// buffer; ByteReader walks untrusted bytes and *never* trusts a length it
// just read: every size-prefixed read is validated against the remaining
// buffer before a single byte is allocated, so a hostile 8-byte header
// cannot demand a multi-gigabyte vector.  The reader is sticky-error: the
// first failure latches a Status, every later read returns the zero value,
// and callers check status() once at the end instead of after each field.
//
// A persisted record is written once, as a field list: a function template
// `fields(io, record)` that names every field in wire order and at its
// wire width.  FieldWriter gives the list its encode meaning and
// FieldReader its decode meaning, so the two directions cannot disagree.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "pragma/util/status.hpp"

namespace pragma::io {

/// Fixed-width fields at a raw position, for the fixed-layout file and
/// frame headers.
inline void put_u32(std::uint8_t* out, std::uint32_t value) {
  std::memcpy(out, &value, sizeof value);
}
inline void put_u64(std::uint8_t* out, std::uint64_t value) {
  std::memcpy(out, &value, sizeof value);
}
[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t value = 0;
  std::memcpy(&value, in, sizeof value);
  return value;
}
[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t value = 0;
  std::memcpy(&value, in, sizeof value);
  return value;
}

class ByteWriter {
 public:
  void u8(std::uint8_t value) { buffer_.push_back(value); }
  void u32(std::uint32_t value) { append(&value, sizeof value); }
  void u64(std::uint64_t value) { append(&value, sizeof value); }
  void i32(std::int32_t value) { append(&value, sizeof value); }
  void i64(std::int64_t value) { append(&value, sizeof value); }
  void f64(double value) { append(&value, sizeof value); }

  /// Size-prefixed string (u32 length + raw bytes).
  void str(const std::string& value) {
    u32(static_cast<std::uint32_t>(value.size()));
    append(value.data(), value.size());
  }

  void raw(const void* data, std::size_t size) { append(data, size); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() {
    return std::move(buffer_);
  }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  void append(const void* data, std::size_t size) {
    // resize + memcpy rather than insert: GCC 12 misreads the inlined
    // insert as an overflow (-Wstringop-overflow).  An empty string's
    // data() may be null, which memcpy must not see.
    if (size == 0) return;
    const std::size_t at = buffer_.size();
    buffer_.resize(at + size);
    std::memcpy(buffer_.data() + at, data, size);
  }
  std::vector<std::uint8_t> buffer_;
};

class ByteReader {
 public:
  /// Longest string any snapshot field may carry (partitioner names,
  /// octant labels).  Longer prefixes are rejected as malformed.
  static constexpr std::uint32_t kMaxStringBytes = 4096;

  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<std::uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8() {
    std::uint8_t v = 0;
    extract(&v, sizeof v, "u8");
    return v;
  }
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    extract(&v, sizeof v, "u32");
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    extract(&v, sizeof v, "u64");
    return v;
  }
  [[nodiscard]] std::int32_t i32() {
    std::int32_t v = 0;
    extract(&v, sizeof v, "i32");
    return v;
  }
  [[nodiscard]] std::int64_t i64() {
    std::int64_t v = 0;
    extract(&v, sizeof v, "i64");
    return v;
  }
  [[nodiscard]] double f64() {
    double v = 0.0;
    extract(&v, sizeof v, "f64");
    return v;
  }

  [[nodiscard]] std::string str() {
    const std::uint32_t length = u32();
    if (!ok()) return {};
    if (length > kMaxStringBytes) {
      fail("string length " + std::to_string(length) + " exceeds cap");
      return {};
    }
    if (length > remaining()) {
      fail("string overruns buffer");
      return {};
    }
    std::string out(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return out;
  }

  /// Read a u32 element count for a sequence whose elements occupy at
  /// least `min_element_bytes` each.  Rejects counts that could not
  /// possibly fit in the remaining buffer — the guard that makes hostile
  /// "count = 2^31" headers cheap to reject.
  [[nodiscard]] std::uint32_t count(std::size_t min_element_bytes,
                                    std::uint32_t cap) {
    const std::uint32_t n = u32();
    if (!ok()) return 0;
    if (n > cap) {
      fail("element count " + std::to_string(n) + " exceeds cap " +
           std::to_string(cap));
      return 0;
    }
    if (min_element_bytes > 0 && n > remaining() / min_element_bytes) {
      fail("element count " + std::to_string(n) + " overruns buffer");
      return 0;
    }
    return n;
  }

  /// Latch an application-level validation failure.
  void fail(std::string message) {
    if (status_.is_ok())
      status_ = util::Status::invalid(std::move(message));
  }

  [[nodiscard]] bool ok() const { return status_.is_ok(); }
  [[nodiscard]] const util::Status& status() const { return status_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }

 private:
  void extract(void* out, std::size_t size, const char* what) {
    if (!ok()) return;
    if (size > remaining()) {
      fail(std::string("truncated ") + what + " at offset " +
           std::to_string(pos_));
      return;
    }
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
  util::Status status_;
};

/// Gives a field list its encode meaning: append each field.
struct FieldWriter {
  void u32(std::uint32_t value) { out.u32(value); }
  void i32(std::int32_t value) { out.i32(value); }
  void i64(std::int64_t value) { out.i64(value); }
  void u64(std::uint64_t value) { out.u64(value); }
  void f64(double value) { out.f64(value); }
  void str(const std::string& value) { out.str(value); }
  void flag(bool value) { out.u8(value ? 1 : 0); }
  /// An enum as one byte.
  template <class Enum>
  void code(Enum value, Enum /*last*/, const char* /*what*/) {
    out.u8(static_cast<std::uint8_t>(value));
  }
  /// A u32 count, then each item.
  template <class T, class Each>
  void list(const std::vector<T>& items, std::size_t /*min_item_bytes*/,
            std::uint32_t /*cap*/, Each each) {
    out.u32(static_cast<std::uint32_t>(items.size()));
    for (const T& item : items) each(item);
  }

  ByteWriter out;
};

/// Gives a field list its decode meaning: read each field back over the
/// record, rejecting out-of-range enums and implausible counts.  The
/// reader is sticky-error, so a truncated payload zero-fills the rest and
/// the caller checks once at the end.
struct FieldReader {
  explicit FieldReader(const std::vector<std::uint8_t>& payload)
      : in(payload) {}

  void u32(std::uint32_t& value) { value = in.u32(); }
  void i32(std::int32_t& value) { value = in.i32(); }
  void i64(std::int64_t& value) { value = in.i64(); }
  template <class T>
  void u64(T& value) {
    value = static_cast<T>(in.u64());
  }
  void f64(double& value) { value = in.f64(); }
  void str(std::string& value) { value = in.str(); }
  void flag(bool& value) { value = in.u8() != 0; }
  /// One byte, at most `last`.
  template <class Enum>
  void code(Enum& value, Enum last, const char* what) {
    const std::uint8_t raw = in.u8();
    if (in.ok() && raw > static_cast<std::uint8_t>(last))
      in.fail(std::string("unknown ") + what + " " + std::to_string(raw));
    value = static_cast<Enum>(raw);
  }
  /// A u32 count of at most `cap` items of at least `min_item_bytes`
  /// each, then each item.
  template <class T, class Each>
  void list(std::vector<T>& items, std::size_t min_item_bytes,
            std::uint32_t cap, Each each) {
    items.clear();
    const std::uint32_t n = in.count(min_item_bytes, cap);
    items.reserve(n);
    for (std::uint32_t i = 0; in.ok() && i < n; ++i) each(items.emplace_back());
  }

  ByteReader in;
};

}  // namespace pragma::io
