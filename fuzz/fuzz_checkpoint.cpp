// libFuzzer harness for the checkpoint loader.
//
// Two layers are fuzzed together:
//   1. scan_checkpoint_log — the record log's header / frame validation
//      (magic, CRCs, types, declared sizes) over raw bytes, as
//      CheckpointStore::records() runs it on each generation file;
//   2. decode_run_snapshot — the payload decoder, driven both through
//      the records a scan accepts and through the raw input directly so
//      coverage is not gated behind a correct frame CRC.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pragma/core/run_snapshot.hpp"
#include "pragma/io/checkpoint.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // Keep allocations modest so the fuzzer explores structure, not OOM.
  constexpr std::uint64_t kMaxPayload = 1u << 22;

  std::vector<pragma::io::CheckpointRecord> records;
  (void)pragma::io::scan_checkpoint_log(data, size, kMaxPayload, records);
  for (const pragma::io::CheckpointRecord& record : records) {
    pragma::util::Expected<pragma::core::RunSnapshot> snapshot =
        pragma::core::decode_run_snapshot(record.payload);
    if (!snapshot) {
      volatile std::size_t sink = snapshot.status().to_string().size();
      (void)sink;
    }
  }

  // Hit the payload decoder directly: treat the raw input as a payload so
  // coverage inside decode_run_snapshot is not gated behind a correct CRC.
  const std::vector<std::uint8_t> raw(data, data + size);
  pragma::util::Expected<pragma::core::RunSnapshot> direct =
      pragma::core::decode_run_snapshot(raw);
  if (direct) {
    // A payload the decoder accepts must re-encode without crashing.
    (void)pragma::core::encode_run_snapshot(direct.value());
  }
  return 0;
}
