#ifndef RAPID_NET_CODEC_H_
#define RAPID_NET_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/types.h"
#include "serve/admission.h"
#include "serve/router.h"

namespace rapid::net {

/// The wire protocol of the network serving front-end: compact
/// length-prefixed binary frames carrying score requests and responses
/// between a remote caller and a `net::Server` wrapping a
/// `serve::ServingRouter`.
///
/// ## Frame layout (all integers little-endian)
///
///   offset  size  field
///        0     4  magic "RNET" (0x54454E52)
///        4     1  protocol version (kProtocolVersion)
///        5     1  frame type (`FrameType`)
///        6     2  flags (reserved, must be 0)
///        8     8  request id (caller-chosen, echoed on the response)
///       16     4  payload length in bytes
///       20     N  payload (type-specific, see Encode*/Parse* below)
///
/// Responses may arrive out of order relative to submissions on the same
/// connection (a cache hit overtakes a model run); the request id is the
/// correlation key.
///
/// ## Robustness contract
///
/// Decoding is strictly bounds-checked and never trusts a length field:
/// `ExtractFrame` rejects bad magic, unknown versions, nonzero reserved
/// flags, and oversized payload lengths as `kError` without reading past
/// the buffer; a torn prefix is `kNeedMore`, never a crash. Payload
/// parsers (`ParseScoreRequest` etc.) consume a *complete* frame and fail
/// cleanly on truncated or internally inconsistent payloads (an item
/// count pointing past the payload end), so a malformed payload never
/// desynchronizes the framing layer.
inline constexpr uint32_t kFrameMagic = 0x54454E52;  // "RNET"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 20;

enum class FrameType : uint8_t {
  kScoreRequest = 1,
  kScoreResponse = 2,
  /// Server -> client: the request could not be served (malformed payload,
  /// unknown frame type, server draining). Payload is a UTF-8 message.
  kError = 3,
  /// Client -> server: asks for the router's `RouterStats` snapshot, in
  /// the format named by the payload's `StatsFormat` byte. Added after the
  /// first protocol release *without* a version bump: a peer that predates
  /// it answers with a `kError` frame ("unknown frame type"), which
  /// callers surface — new frame types are a compatible extension, unlike
  /// a layout change to an existing frame.
  kStatsRequest = 4,
  kStatsResponse = 5,
  /// Client -> server: asks the server to `LoadSlot(slot, path)` — the
  /// remote-rollout primitive the shard coordinator drives. Servers refuse
  /// it unless explicitly enabled (`ServerConfig::enable_remote_load`):
  /// the path names a file on the *server's* filesystem, so the frame is
  /// trusted-operator API, not public surface.
  kLoadSlotRequest = 6,
  kLoadSlotResponse = 7,
  /// Client -> server: one served impression list plus its observed
  /// click labels — the raw material of the online learning loop. The
  /// server appends it to its `online::FeedbackLog` (refusing with
  /// `kError` when no log is configured) and answers `kFeedbackAck`.
  /// Like the admin frames, a compatible extension: an old peer answers
  /// `kError` ("unknown frame type").
  kFeedback = 8,
  kFeedbackAck = 9,
  /// Client -> server: one *page* — several candidate lists for one user
  /// plus a shared diversity budget. The server fans the lists into one
  /// router micro-batch, runs the cross-list greedy pass (`src/page/`)
  /// over the returned orders, and answers `kPageResponse` with every
  /// list's final permutation. One frame carrying L lists amortizes
  /// syscalls and dispatcher round-trips over L single-list frames — the
  /// bulk-scoring batch frame. Like the other post-v1 frames, a
  /// compatible extension: an old peer answers `kError`
  /// ("unknown frame type").
  kPageRequest = 10,
  kPageResponse = 11,
};

/// How a `kStatsRequest` wants its answer encoded.
enum class StatsFormat : uint8_t {
  /// Structured binary payload (`ParseStatsResponse` fills a
  /// `serve::RouterStats`) — what the shard layer merges across a fleet.
  kBinary = 0,
  /// The router's `ToJson` text as the raw payload bytes (not
  /// length-prefixed — JSON outgrows the string limit), for scrapers.
  kJson = 1,
  /// Prometheus text exposition (`serve::RenderPrometheus`), raw payload
  /// bytes like kJson, for standard metric collectors.
  kPrometheus = 2,
};

/// Decoder bounds, enforced before any allocation sized from wire data.
struct CodecLimits {
  /// Frames with a larger payload length are rejected outright.
  uint32_t max_payload_bytes = 1u << 20;
  /// Candidate items per request/response list.
  uint32_t max_items = 4096;
  /// Slot-name / model-name / error-message length.
  uint32_t max_string_bytes = 256;
  /// Candidate lists one page frame may carry (each list is additionally
  /// bounded by `max_items`).
  uint32_t max_lists_per_page = 64;
};

struct FrameHeader {
  uint8_t version = 0;
  FrameType type = FrameType::kError;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

/// One complete frame pulled off a connection's read buffer.
struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

/// A score request as it crosses the wire: the routing envelope plus the
/// candidate list. Click labels never cross the wire — inference does not
/// read them (see `serve::ResultCache`).
struct WireRequest {
  uint64_t request_id = 0;
  std::string slot;
  serve::Lane lane = serve::Lane::kHigh;
  /// Advisory per-request deadline, microseconds from submission; 0 =
  /// none. Carried on the wire for forward compatibility; the router
  /// currently applies its configured per-request deadline.
  int64_t deadline_us = 0;
  /// `user_id`, `items`, `scores` are meaningful; `clicks` is ignored.
  data::ImpressionList list;
};

/// A score response as it crosses the wire (mirrors
/// `serve::RouterResponse` minus the transport-local latency stamp).
struct WireResponse {
  uint64_t request_id = 0;
  bool degraded = false;
  bool shed = false;
  bool cache_hit = false;
  std::string model_name;
  uint64_t model_version = 0;
  /// Server-side latency (router submit -> response ready), microseconds.
  int64_t server_latency_us = 0;
  std::vector<int> items;
};

struct WireError {
  uint64_t request_id = 0;
  std::string message;
};

/// A stats scrape as it crosses the wire.
struct WireStatsRequest {
  uint64_t request_id = 0;
  StatsFormat format = StatsFormat::kBinary;
};

/// The answer: exactly one of `stats` (kBinary) or `text` (kJson /
/// kPrometheus) is meaningful, per `format`.
struct WireStatsResponse {
  uint64_t request_id = 0;
  StatsFormat format = StatsFormat::kBinary;
  serve::RouterStats stats;
  std::string text;
};

/// A remote `LoadSlot` as it crosses the wire. `path` names a snapshot on
/// the receiving server's filesystem.
struct WireLoadRequest {
  uint64_t request_id = 0;
  std::string slot;
  std::string path;
};

struct WireLoadResponse {
  uint64_t request_id = 0;
  /// The newly published version, or 0 when the load failed (bad
  /// snapshot, canary rejection) and the slot kept its previous version.
  uint64_t version = 0;
  /// Human-readable detail, empty on success.
  std::string message;
};

/// One served impression and its observed clicks, as they cross the wire
/// back to the trainer. `items` is the list *as served* (post-rerank
/// order matters — the DCM click model is positional) and `clicks` is one
/// 0/1 label per item; a length mismatch fails the parse.
struct WireFeedback {
  uint64_t request_id = 0;
  /// The slot that served the list, so one log can feed per-slot trainers.
  std::string slot;
  /// The model version stamped on the serving response; lets the trainer
  /// attribute feedback to the exact published model that earned it.
  uint64_t model_version = 0;
  int32_t user_id = 0;
  std::vector<int> items;
  std::vector<uint8_t> clicks;
};

struct WireFeedbackAck {
  uint64_t request_id = 0;
  /// False when the event was not logged (log full, or feedback disabled
  /// on this server); `message` carries the reason.
  bool accepted = false;
  std::string message;
};

/// One page as it crosses the wire: the routing envelope, the user's
/// diversity budget, and N candidate lists (each list's `items` and
/// `scores` are meaningful; the per-list `user_id` and `clicks` never
/// cross — the page-level `user_id` applies to every list).
struct WirePageRequest {
  uint64_t request_id = 0;
  std::string slot;
  serve::Lane lane = serve::Lane::kHigh;
  /// Advisory, as on `WireRequest`.
  int64_t deadline_us = 0;
  int32_t user_id = 0;
  /// Per-user diversity budget in mean-topic units (see the `budget` of
  /// `page::PageReranker::Rerank`). The server sanitizes
  /// non-finite or negative values to 0.
  float diversity_budget = 0.0f;
  /// 1 = joint cross-list pass (the default), 0 = independent per-list
  /// baseline — on the wire so a caller can A/B both against one server.
  uint8_t joint = 1;
  /// Positions per list receiving the diversity treatment; 0 = all.
  int32_t top_k = 0;
  std::vector<data::ImpressionList> lists;
};

/// The reranked page as it crosses the wire.
struct WirePageResponse {
  uint64_t request_id = 0;
  /// True when any list was answered degraded — the cross-list pass is
  /// skipped and the router's per-list orders returned unchanged.
  bool degraded = false;
  /// Attribution of the model that scored the lists (first non-degraded
  /// list's stamp; empty/0 when the whole page degraded).
  std::string model_name;
  uint64_t model_version = 0;
  int64_t server_latency_us = 0;
  /// Mean-topic coverage of the served page's treated prefixes.
  float page_coverage = 0.0f;
  /// Duplicated topic mass across sibling lists (mean-topic units).
  float cross_list_redundancy = 0.0f;
  /// One permutation per submitted list, in submission order.
  std::vector<std::vector<int>> lists;
};

/// Appends one encoded frame to `out` (does not clear it), so a pipelined
/// batch can be serialized into one flat buffer and written with one
/// syscall.
void EncodeScoreRequest(const WireRequest& request, std::vector<uint8_t>* out);
void EncodeScoreResponse(const WireResponse& response,
                         std::vector<uint8_t>* out);
void EncodeError(uint64_t request_id, std::string_view message,
                 std::vector<uint8_t>* out);
void EncodeStatsRequest(const WireStatsRequest& request,
                        std::vector<uint8_t>* out);
void EncodeStatsResponse(const WireStatsResponse& response,
                         std::vector<uint8_t>* out);
void EncodeLoadRequest(const WireLoadRequest& request,
                       std::vector<uint8_t>* out);
void EncodeLoadResponse(const WireLoadResponse& response,
                        std::vector<uint8_t>* out);
void EncodeFeedback(const WireFeedback& feedback, std::vector<uint8_t>* out);
void EncodeFeedbackAck(const WireFeedbackAck& ack, std::vector<uint8_t>* out);
void EncodePageRequest(const WirePageRequest& request,
                       std::vector<uint8_t>* out);
void EncodePageResponse(const WirePageResponse& response,
                        std::vector<uint8_t>* out);

enum class DecodeStatus {
  /// One complete frame extracted; `*consumed` bytes were used.
  kOk,
  /// The buffer holds a valid prefix of a frame; read more bytes.
  kNeedMore,
  /// The buffer does not start with a well-formed frame (bad magic,
  /// unknown version, oversized length). The connection is
  /// unrecoverable — framing is lost — and should be closed.
  kError,
};

/// Tries to pull one frame off the front of `data[0..size)`. On `kOk`,
/// `*out` holds the frame and `*consumed` the bytes to discard; on
/// `kNeedMore`/`kError` nothing is consumed.
DecodeStatus ExtractFrame(const uint8_t* data, size_t size, size_t* consumed,
                          Frame* out, const CodecLimits& limits = {});

/// Payload parsers. Each requires the matching frame type and returns
/// false on any truncated, oversized, or internally inconsistent payload
/// (the output is unspecified but never out-of-bounds).
bool ParseScoreRequest(const Frame& frame, WireRequest* out,
                       const CodecLimits& limits = {});
bool ParseScoreResponse(const Frame& frame, WireResponse* out,
                        const CodecLimits& limits = {});
bool ParseError(const Frame& frame, WireError* out,
                const CodecLimits& limits = {});
bool ParseStatsRequest(const Frame& frame, WireStatsRequest* out,
                       const CodecLimits& limits = {});
bool ParseStatsResponse(const Frame& frame, WireStatsResponse* out,
                        const CodecLimits& limits = {});
bool ParseLoadRequest(const Frame& frame, WireLoadRequest* out,
                      const CodecLimits& limits = {});
bool ParseLoadResponse(const Frame& frame, WireLoadResponse* out,
                       const CodecLimits& limits = {});
bool ParseFeedback(const Frame& frame, WireFeedback* out,
                   const CodecLimits& limits = {});
bool ParseFeedbackAck(const Frame& frame, WireFeedbackAck* out,
                      const CodecLimits& limits = {});
bool ParsePageRequest(const Frame& frame, WirePageRequest* out,
                      const CodecLimits& limits = {});
bool ParsePageResponse(const Frame& frame, WirePageResponse* out,
                       const CodecLimits& limits = {});

}  // namespace rapid::net

#endif  // RAPID_NET_CODEC_H_
