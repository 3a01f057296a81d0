#include "net/codec.h"

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace rapid::net {

namespace {

// The wire format is defined little-endian; every supported target of this
// repo (x86-64, aarch64 Linux) is little-endian, so encode/decode are raw
// byte copies. A big-endian port would swap here, in one place.

template <typename T>
void Append(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &value, sizeof(T));
}

void AppendBytes(std::vector<uint8_t>* out, const void* data, size_t n) {
  if (n == 0) return;  // Empty vectors may hand over a null data().
  const size_t at = out->size();
  out->resize(at + n);
  std::memcpy(out->data() + at, data, n);
}

void AppendString(std::vector<uint8_t>* out, std::string_view s) {
  // The length prefix is 16-bit: truncate oversized strings to what it can
  // describe rather than emit a desynchronized frame (prefix says 64KiB-n,
  // payload carries more). Decoders additionally cap accepted lengths at
  // CodecLimits::max_string_bytes.
  if (s.size() > UINT16_MAX) s = s.substr(0, UINT16_MAX);
  Append<uint16_t>(out, static_cast<uint16_t>(s.size()));
  AppendBytes(out, s.data(), s.size());
}

/// Bounds-checked sequential reader over one frame payload. Every `Read*`
/// fails (returns false) instead of reading past `size_`; a parser that
/// only ever advances through this class cannot overrun the buffer no
/// matter what the length fields claim.
class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadString(std::string* out, uint32_t max_bytes) {
    uint16_t len = 0;
    if (!Read(&len) || len > max_bytes || size_ - pos_ < len) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  template <typename T>
  bool ReadArray(std::vector<T>* out, uint32_t max_elems) {
    uint32_t count = 0;
    if (!Read(&count) || count > max_elems) return false;
    // Checked before the resize: a hostile count can never size an
    // allocation beyond max_elems or read past the payload.
    if ((size_ - pos_) / sizeof(T) < count) return false;
    out->resize(count);
    if (count > 0) {
      std::memcpy(out->data(), data_ + pos_, count * sizeof(T));
      pos_ += count * sizeof(T);
    }
    return true;
  }

  /// Hands the next `n` bytes to `*out` as their own reader.
  bool Sub(uint32_t n, ByteReader* out) {
    if (size_ - pos_ < n) return false;
    *out = ByteReader(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
};

void AppendFrame(std::vector<uint8_t>* out, FrameType type,
                 uint64_t request_id, const std::vector<uint8_t>& payload) {
  out->reserve(out->size() + kFrameHeaderBytes + payload.size());
  Append<uint32_t>(out, kFrameMagic);
  Append<uint8_t>(out, kProtocolVersion);
  Append<uint8_t>(out, static_cast<uint8_t>(type));
  Append<uint16_t>(out, 0);  // flags
  Append<uint64_t>(out, request_id);
  Append<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  AppendBytes(out, payload.data(), payload.size());
}

constexpr uint8_t kFlagDegraded = 1;
constexpr uint8_t kFlagShed = 2;
constexpr uint8_t kFlagCacheHit = 4;

// --- Binary RouterStats payload -------------------------------------------
//
// Keyed by the declared field ids (serve/stats_schema.h), so peers running
// different versions still merge:
//
//   section := u16 count, count x record
//   record  := u16 id, u32 length, length bytes
//
// The payload is a section of block records (`StatsRecord`); a block's body
// is a section of field records whose bytes are the value (8 bytes per
// scalar, 8 per histogram bin). Zero-valued fields are omitted. Decoders
// skip ids they do not know and leave absent fields zero, so a field or
// block added later is invisible to an older peer instead of breaking it.
// The counts make every truncation a parse error.

enum StatsRecord : uint16_t {
  kTotal = 1,
  kCache = 2,
  kRouter = 3,
  kProcess = 4,
  kNet = 5,
  kOnline = 6,
  kPage = 7,
  // Repeated, one per slot: two strings and the version, then a section of
  // kTotal (its ServingStats) and kCache records.
  kSlot = 8,
};

/// Writes a record header; returns where its body starts for `EndRecord`.
size_t BeginRecord(std::vector<uint8_t>* out, uint16_t id) {
  Append<uint16_t>(out, id);
  Append<uint32_t>(out, 0);
  return out->size();
}

void EndRecord(std::vector<uint8_t>* out, size_t body) {
  const uint32_t len = static_cast<uint32_t>(out->size() - body);
  std::memcpy(out->data() + body - sizeof(len), &len, sizeof(len));
}

void PatchCount(std::vector<uint8_t>* out, size_t at, uint16_t count) {
  std::memcpy(out->data() + at, &count, sizeof(count));
}

bool ReadRecord(ByteReader* reader, uint16_t* id, ByteReader* body) {
  uint32_t len = 0;
  return reader->Read(id) && reader->Read(&len) && reader->Sub(len, body);
}

template <typename Block>
void AppendBlock(std::vector<uint8_t>* out, uint16_t id, const Block& block) {
  const size_t body = BeginRecord(out, id);
  const size_t count_at = out->size();
  uint16_t count = 0;
  Append<uint16_t>(out, 0);
  Block::Fields([&](const serve::stats::Field& f, auto member) {
    const auto& v = block.*member;
    using T = std::remove_cvref_t<decltype(v)>;
    if (v == T{}) return;
    const size_t at = BeginRecord(out, f.id);
    if constexpr (serve::stats::kIsHistogram<T>) {
      AppendBytes(out, v.data(), v.size() * sizeof(uint64_t));
    } else if constexpr (std::is_same_v<T, double>) {
      Append<double>(out, v);
    } else {
      Append<int64_t>(out, static_cast<int64_t>(v));
    }
    EndRecord(out, at);
    ++count;
  });
  PatchCount(out, count_at, count);
  EndRecord(out, body);
}

template <typename Block>
bool ReadBlock(ByteReader reader, Block* block) {
  uint16_t count = 0;
  if (!reader.Read(&count)) return false;
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t id = 0;
    ByteReader value;
    if (!ReadRecord(&reader, &id, &value)) return false;
    bool ok = true;
    Block::Fields([&](const serve::stats::Field& f, auto member) {
      if (f.id != id) return;
      auto& v = block->*member;
      using T = std::remove_cvref_t<decltype(v)>;
      if constexpr (serve::stats::kIsHistogram<T>) {
        for (uint64_t& bin : v) ok = ok && value.Read(&bin);
      } else if constexpr (std::is_same_v<T, double>) {
        ok = value.Read(&v);
      } else {
        int64_t raw = 0;
        ok = value.Read(&raw);
        v = static_cast<T>(raw);
      }
      ok = ok && value.AtEnd();
    });
    if (!ok) return false;
  }
  return reader.AtEnd();
}

bool ReadSlot(ByteReader reader, serve::RouterStats* s,
              const CodecLimits& limits) {
  serve::RouterStats::SlotEntry entry;
  uint16_t count = 0;
  if (s->slots.size() >= limits.max_items ||
      !reader.ReadString(&entry.slot, limits.max_string_bytes) ||
      !reader.ReadString(&entry.model_name, limits.max_string_bytes) ||
      !reader.Read(&entry.version) || !reader.Read(&count)) {
    return false;
  }
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t id = 0;
    ByteReader body;
    if (!ReadRecord(&reader, &id, &body)) return false;
    if ((id == kTotal && !ReadBlock(body, &entry.stats)) ||
        (id == kCache && !ReadBlock(body, &entry.cache))) {
      return false;
    }
  }
  if (!reader.AtEnd()) return false;
  s->slots.push_back(std::move(entry));
  return true;
}

void AppendRouterStats(std::vector<uint8_t>* out,
                       const serve::RouterStats& s) {
  const size_t count_at = out->size();
  uint16_t count = 0;
  Append<uint16_t>(out, 0);
  const auto block = [&](uint16_t id, const auto& b) {
    AppendBlock(out, id, b);
    ++count;
  };
  block(kTotal, s.total);
  block(kCache, s.cache);
  block(kRouter, s);
  block(kProcess, s.process);
  if (s.has_net) block(kNet, s.net);
  if (s.has_online) block(kOnline, s.online);
  if (s.has_page) block(kPage, s.page);
  for (const serve::RouterStats::SlotEntry& slot : s.slots) {
    const size_t body = BeginRecord(out, kSlot);
    AppendString(out, slot.slot);
    AppendString(out, slot.model_name);
    Append<uint64_t>(out, slot.version);
    Append<uint16_t>(out, 2);
    AppendBlock(out, kTotal, slot.stats);
    AppendBlock(out, kCache, slot.cache);
    EndRecord(out, body);
    ++count;
  }
  PatchCount(out, count_at, count);
}

bool ReadRouterStats(ByteReader* reader, serve::RouterStats* s,
                     const CodecLimits& limits) {
  uint16_t count = 0;
  if (!reader->Read(&count)) return false;
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t id = 0;
    ByteReader body;
    if (!ReadRecord(reader, &id, &body)) return false;
    bool ok = true;
    switch (id) {
      case kTotal: ok = ReadBlock(body, &s->total); break;
      case kCache: ok = ReadBlock(body, &s->cache); break;
      case kRouter: ok = ReadBlock(body, s); break;
      case kProcess: ok = ReadBlock(body, &s->process); break;
      case kNet:
        s->has_net = true;
        ok = ReadBlock(body, &s->net);
        break;
      case kOnline:
        s->has_online = true;
        ok = ReadBlock(body, &s->online);
        break;
      case kPage:
        s->has_page = true;
        ok = ReadBlock(body, &s->page);
        break;
      case kSlot: ok = ReadSlot(body, s, limits); break;
      default: break;  // A newer peer's block.
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace

void EncodeScoreRequest(const WireRequest& request,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, request.slot);
  Append<uint8_t>(&payload, request.lane == serve::Lane::kHigh ? 0 : 1);
  Append<int64_t>(&payload, request.deadline_us);
  Append<int32_t>(&payload, request.list.user_id);
  Append<uint32_t>(&payload,
                   static_cast<uint32_t>(request.list.items.size()));
  AppendBytes(&payload, request.list.items.data(),
              request.list.items.size() * sizeof(int));
  Append<uint32_t>(&payload,
                   static_cast<uint32_t>(request.list.scores.size()));
  AppendBytes(&payload, request.list.scores.data(),
              request.list.scores.size() * sizeof(float));
  AppendFrame(out, FrameType::kScoreRequest, request.request_id, payload);
}

void EncodeScoreResponse(const WireResponse& response,
                         std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  uint8_t flags = 0;
  if (response.degraded) flags |= kFlagDegraded;
  if (response.shed) flags |= kFlagShed;
  if (response.cache_hit) flags |= kFlagCacheHit;
  Append<uint8_t>(&payload, flags);
  Append<uint64_t>(&payload, response.model_version);
  AppendString(&payload, response.model_name);
  Append<int64_t>(&payload, response.server_latency_us);
  Append<uint32_t>(&payload, static_cast<uint32_t>(response.items.size()));
  AppendBytes(&payload, response.items.data(),
              response.items.size() * sizeof(int));
  AppendFrame(out, FrameType::kScoreResponse, response.request_id, payload);
}

void EncodeError(uint64_t request_id, std::string_view message,
                 std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, message.substr(0, 255));
  AppendFrame(out, FrameType::kError, request_id, payload);
}

void EncodeStatsRequest(const WireStatsRequest& request,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, static_cast<uint8_t>(request.format));
  AppendFrame(out, FrameType::kStatsRequest, request.request_id, payload);
}

void EncodeStatsResponse(const WireStatsResponse& response,
                         std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, static_cast<uint8_t>(response.format));
  if (response.format == StatsFormat::kBinary) {
    AppendRouterStats(&payload, response.stats);
  } else {
    // kJson / kPrometheus: raw bytes, not a length-prefixed string — the
    // text body routinely exceeds the string limit, and the frame length
    // already bounds it.
    AppendBytes(&payload, response.text.data(), response.text.size());
  }
  AppendFrame(out, FrameType::kStatsResponse, response.request_id, payload);
}

void EncodeLoadRequest(const WireLoadRequest& request,
                       std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, request.slot);
  AppendString(&payload, request.path);
  AppendFrame(out, FrameType::kLoadSlotRequest, request.request_id, payload);
}

void EncodeLoadResponse(const WireLoadResponse& response,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint64_t>(&payload, response.version);
  AppendString(&payload, std::string_view(response.message).substr(0, 255));
  AppendFrame(out, FrameType::kLoadSlotResponse, response.request_id,
              payload);
}

DecodeStatus ExtractFrame(const uint8_t* data, size_t size, size_t* consumed,
                          Frame* out, const CodecLimits& limits) {
  if (size < kFrameHeaderBytes) {
    // Reject a wrong magic as soon as 4 bytes are visible — no point
    // waiting for a full header that can never become valid.
    if (size >= sizeof(uint32_t)) {
      uint32_t magic = 0;
      std::memcpy(&magic, data, sizeof(magic));
      if (magic != kFrameMagic) return DecodeStatus::kError;
    }
    return DecodeStatus::kNeedMore;
  }
  ByteReader reader(data, kFrameHeaderBytes);
  uint32_t magic = 0;
  uint8_t version = 0, type = 0;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  reader.Read(&magic);
  reader.Read(&version);
  reader.Read(&type);
  reader.Read(&flags);
  reader.Read(&request_id);
  reader.Read(&payload_len);
  if (magic != kFrameMagic || version != kProtocolVersion || flags != 0 ||
      payload_len > limits.max_payload_bytes) {
    return DecodeStatus::kError;
  }
  if (size - kFrameHeaderBytes < payload_len) return DecodeStatus::kNeedMore;
  out->header.version = version;
  out->header.type = static_cast<FrameType>(type);
  out->header.request_id = request_id;
  out->header.payload_len = payload_len;
  out->payload.assign(data + kFrameHeaderBytes,
                      data + kFrameHeaderBytes + payload_len);
  *consumed = kFrameHeaderBytes + payload_len;
  return DecodeStatus::kOk;
}

bool ParseScoreRequest(const Frame& frame, WireRequest* out,
                       const CodecLimits& limits) {
  if (frame.header.type != FrameType::kScoreRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t lane = 0;
  if (!reader.ReadString(&out->slot, limits.max_string_bytes) ||
      !reader.Read(&lane) || lane > 1 || !reader.Read(&out->deadline_us) ||
      !reader.Read(&out->list.user_id) ||
      !reader.ReadArray(&out->list.items, limits.max_items) ||
      !reader.ReadArray(&out->list.scores, limits.max_items)) {
    return false;
  }
  out->lane = lane == 0 ? serve::Lane::kHigh : serve::Lane::kLow;
  out->list.clicks.clear();
  return reader.AtEnd();
}

bool ParseScoreResponse(const Frame& frame, WireResponse* out,
                        const CodecLimits& limits) {
  if (frame.header.type != FrameType::kScoreResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t flags = 0;
  if (!reader.Read(&flags) || !reader.Read(&out->model_version) ||
      !reader.ReadString(&out->model_name, limits.max_string_bytes) ||
      !reader.Read(&out->server_latency_us) ||
      !reader.ReadArray(&out->items, limits.max_items)) {
    return false;
  }
  out->degraded = (flags & kFlagDegraded) != 0;
  out->shed = (flags & kFlagShed) != 0;
  out->cache_hit = (flags & kFlagCacheHit) != 0;
  return reader.AtEnd();
}

bool ParseError(const Frame& frame, WireError* out,
                const CodecLimits& limits) {
  if (frame.header.type != FrameType::kError) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  return reader.ReadString(&out->message, limits.max_string_bytes) &&
         reader.AtEnd();
}

bool ParseStatsRequest(const Frame& frame, WireStatsRequest* out,
                       const CodecLimits& limits) {
  (void)limits;
  if (frame.header.type != FrameType::kStatsRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t format = 0;
  if (!reader.Read(&format) || format > 2 || !reader.AtEnd()) return false;
  out->format = static_cast<StatsFormat>(format);
  return true;
}

bool ParseStatsResponse(const Frame& frame, WireStatsResponse* out,
                        const CodecLimits& limits) {
  if (frame.header.type != FrameType::kStatsResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t format = 0;
  if (!reader.Read(&format) || format > 2) return false;
  out->format = static_cast<StatsFormat>(format);
  if (out->format != StatsFormat::kBinary) {
    // Everything after the format byte is the text body (JSON or
    // Prometheus exposition).
    out->text.assign(
        reinterpret_cast<const char*>(frame.payload.data()) + 1,
        frame.payload.size() - 1);
    out->stats = serve::RouterStats{};
    return true;
  }
  out->text.clear();
  out->stats = serve::RouterStats{};
  return ReadRouterStats(&reader, &out->stats, limits) && reader.AtEnd();
}

void EncodeFeedback(const WireFeedback& feedback, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, feedback.slot);
  Append<uint64_t>(&payload, feedback.model_version);
  Append<int32_t>(&payload, feedback.user_id);
  Append<uint32_t>(&payload, static_cast<uint32_t>(feedback.items.size()));
  AppendBytes(&payload, feedback.items.data(),
              feedback.items.size() * sizeof(int));
  Append<uint32_t>(&payload, static_cast<uint32_t>(feedback.clicks.size()));
  AppendBytes(&payload, feedback.clicks.data(), feedback.clicks.size());
  AppendFrame(out, FrameType::kFeedback, feedback.request_id, payload);
}

void EncodeFeedbackAck(const WireFeedbackAck& ack,
                       std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, ack.accepted ? 1 : 0);
  AppendString(&payload, std::string_view(ack.message).substr(0, 255));
  AppendFrame(out, FrameType::kFeedbackAck, ack.request_id, payload);
}

bool ParseFeedback(const Frame& frame, WireFeedback* out,
                   const CodecLimits& limits) {
  if (frame.header.type != FrameType::kFeedback) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  if (!reader.ReadString(&out->slot, limits.max_string_bytes) ||
      !reader.Read(&out->model_version) || !reader.Read(&out->user_id) ||
      !reader.ReadArray(&out->items, limits.max_items) ||
      !reader.ReadArray(&out->clicks, limits.max_items)) {
    return false;
  }
  // One label per served item — a mismatch is an internally inconsistent
  // payload, not something the trainer should guess about.
  if (out->clicks.size() != out->items.size()) return false;
  for (const uint8_t click : out->clicks) {
    if (click > 1) return false;
  }
  return reader.AtEnd();
}

bool ParseFeedbackAck(const Frame& frame, WireFeedbackAck* out,
                      const CodecLimits& limits) {
  if (frame.header.type != FrameType::kFeedbackAck) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t accepted = 0;
  if (!reader.Read(&accepted) || accepted > 1 ||
      !reader.ReadString(&out->message, limits.max_string_bytes) ||
      !reader.AtEnd()) {
    return false;
  }
  out->accepted = accepted != 0;
  return true;
}

void EncodePageRequest(const WirePageRequest& request,
                       std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  AppendString(&payload, request.slot);
  Append<uint8_t>(&payload, request.lane == serve::Lane::kHigh ? 0 : 1);
  Append<int64_t>(&payload, request.deadline_us);
  Append<int32_t>(&payload, request.user_id);
  Append<float>(&payload, request.diversity_budget);
  Append<uint8_t>(&payload, request.joint ? 1 : 0);
  Append<int32_t>(&payload, request.top_k);
  Append<uint32_t>(&payload, static_cast<uint32_t>(request.lists.size()));
  for (const data::ImpressionList& list : request.lists) {
    Append<uint32_t>(&payload, static_cast<uint32_t>(list.items.size()));
    AppendBytes(&payload, list.items.data(),
                list.items.size() * sizeof(int));
    Append<uint32_t>(&payload, static_cast<uint32_t>(list.scores.size()));
    AppendBytes(&payload, list.scores.data(),
                list.scores.size() * sizeof(float));
  }
  AppendFrame(out, FrameType::kPageRequest, request.request_id, payload);
}

void EncodePageResponse(const WirePageResponse& response,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  Append<uint8_t>(&payload, response.degraded ? kFlagDegraded : 0);
  Append<uint64_t>(&payload, response.model_version);
  AppendString(&payload, response.model_name);
  Append<int64_t>(&payload, response.server_latency_us);
  Append<float>(&payload, response.page_coverage);
  Append<float>(&payload, response.cross_list_redundancy);
  Append<uint32_t>(&payload, static_cast<uint32_t>(response.lists.size()));
  for (const std::vector<int>& list : response.lists) {
    Append<uint32_t>(&payload, static_cast<uint32_t>(list.size()));
    AppendBytes(&payload, list.data(), list.size() * sizeof(int));
  }
  AppendFrame(out, FrameType::kPageResponse, response.request_id, payload);
}

bool ParsePageRequest(const Frame& frame, WirePageRequest* out,
                      const CodecLimits& limits) {
  if (frame.header.type != FrameType::kPageRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t lane = 0;
  uint32_t num_lists = 0;
  if (!reader.ReadString(&out->slot, limits.max_string_bytes) ||
      !reader.Read(&lane) || lane > 1 || !reader.Read(&out->deadline_us) ||
      !reader.Read(&out->user_id) || !reader.Read(&out->diversity_budget) ||
      !reader.Read(&out->joint) || out->joint > 1 ||
      !reader.Read(&out->top_k) || out->top_k < 0 ||
      !reader.Read(&num_lists) || num_lists == 0 ||
      num_lists > limits.max_lists_per_page) {
    return false;
  }
  out->lane = lane == 0 ? serve::Lane::kHigh : serve::Lane::kLow;
  out->lists.clear();
  out->lists.reserve(num_lists);
  for (uint32_t l = 0; l < num_lists; ++l) {
    data::ImpressionList list;
    if (!reader.ReadArray(&list.items, limits.max_items) ||
        !reader.ReadArray(&list.scores, limits.max_items)) {
      return false;
    }
    out->lists.push_back(std::move(list));
  }
  return reader.AtEnd();
}

bool ParsePageResponse(const Frame& frame, WirePageResponse* out,
                       const CodecLimits& limits) {
  if (frame.header.type != FrameType::kPageResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  uint8_t flags = 0;
  uint32_t num_lists = 0;
  if (!reader.Read(&flags) || flags > kFlagDegraded ||
      !reader.Read(&out->model_version) ||
      !reader.ReadString(&out->model_name, limits.max_string_bytes) ||
      !reader.Read(&out->server_latency_us) ||
      !reader.Read(&out->page_coverage) ||
      !reader.Read(&out->cross_list_redundancy) ||
      !reader.Read(&num_lists) || num_lists > limits.max_lists_per_page) {
    return false;
  }
  out->degraded = (flags & kFlagDegraded) != 0;
  out->lists.clear();
  out->lists.reserve(num_lists);
  for (uint32_t l = 0; l < num_lists; ++l) {
    std::vector<int> items;
    if (!reader.ReadArray(&items, limits.max_items)) return false;
    out->lists.push_back(std::move(items));
  }
  return reader.AtEnd();
}

bool ParseLoadRequest(const Frame& frame, WireLoadRequest* out,
                      const CodecLimits& limits) {
  if (frame.header.type != FrameType::kLoadSlotRequest) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  return reader.ReadString(&out->slot, limits.max_string_bytes) &&
         reader.ReadString(&out->path, limits.max_string_bytes) &&
         reader.AtEnd();
}

bool ParseLoadResponse(const Frame& frame, WireLoadResponse* out,
                       const CodecLimits& limits) {
  if (frame.header.type != FrameType::kLoadSlotResponse) return false;
  out->request_id = frame.header.request_id;
  ByteReader reader(frame.payload.data(), frame.payload.size());
  return reader.Read(&out->version) &&
         reader.ReadString(&out->message, limits.max_string_bytes) &&
         reader.AtEnd();
}

}  // namespace rapid::net
