#ifndef RAPID_BENCHMARK_CATALOG_H_
#define RAPID_BENCHMARK_CATALOG_H_

#include <cstdint>
#include <random>
#include <string>

#include "datagen/types.h"

namespace rbench {

// The fixed program input shared by every workload and every seed: one
// Taobao-kind catalog of 20,000 users. `--seed` never reaches it, so two
// runs with different traffic seeds serve the same catalog and model.
inline constexpr int kNumUsers = 20000;
// 500 items keeps catalog generation (the dominant set-up cost, paid on
// every set-up) near 1.5 s; candidate pools stay 40 items per user.
inline constexpr int kNumItems = 500;
inline constexpr int kListLen = 20;
// Users 0..kHotUsers-1 are the "hot" users: the model is trained on their
// lists and the hot_users/online_swap traffic draws only from them.
inline constexpr int kHotUsers = 300;
// Prefix judged by the DCM utility (TrueSatisfaction@10 / page utility@10)
// and diversity-treated by the page pass.
inline constexpr int kTopK = 10;

rapid::data::Dataset MakeCatalog();

// A fresh initial-ranked list for `user`: kListLen distinct items drawn
// from the user's candidate pool, scored by noisy true relevance (the
// stand-in initial ranker of data::GeneratePageSessions) and sorted by
// score. Deterministic given the state of `rng`.
rapid::data::ImpressionList FreshList(const rapid::data::Dataset& data,
                                      int user, std::mt19937_64& rng);

// Trains the served RAPID-pro model on DCM-clicked lists of the hot users
// and writes it as a snapshot to `path`. Deterministic: every call writes
// the same bytes. Returns false on I/O failure.
bool TrainSnapshot(const rapid::data::Dataset& data, const std::string& path);

}  // namespace rbench

#endif  // RAPID_BENCHMARK_CATALOG_H_
