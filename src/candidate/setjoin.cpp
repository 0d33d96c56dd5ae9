#include "candidate/setjoin.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "candidate/blocking.h"
#include "common/error.h"
#include "simd/simd.h"

namespace sybiltd::candidate {

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

// Tasks of A whose pairs are probed: an edge needs T > (2/3)|A|, and the
// second shared task then lies within A's first |A| - floor(2|A|/3) + 1.
std::size_t probe_prefix(std::size_t size) {
  return size - (2 * size) / 3 + 1;
}
// Tasks of B whose pairs are indexed: against any later |A| >= |B|,
// T > (4/5)|B|.
std::size_t index_prefix(std::size_t size) {
  return size - (4 * size) / 5 + 1;
}
// Distinct sets share at most T <= 2 tasks below this size, and an edge
// between distinct sets needs T > 2L >= 2.
constexpr std::size_t kMinJoinSize = 3;

std::size_t intersection_size(std::span<const std::uint32_t> a,
                              std::span<const std::uint32_t> b) {
  std::size_t count = 0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// Open-addressing table of 32-bit ids, each found by its 64-bit key
// key_of(id), sized once for at most `max_ids` ids (load at most 1/2), so
// its memory is linear in the ids it may hold; kNone marks an empty slot.
template <typename KeyOf>
class IdTable {
 public:
  IdTable(std::size_t max_ids, KeyOf key_of) : key_of_(key_of) {
    std::size_t slots = 16;
    while (slots < 2 * max_ids) slots *= 2;
    ids_.assign(slots, kNone);
    shift_ = 64 - std::countr_zero(slots);
  }

  // The slot holding the id with `key`, or the empty slot where it goes.
  std::size_t slot(std::uint64_t key) const {
    std::size_t s =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
    while (ids_[s] != kNone && key_of_(ids_[s]) != key) {
      s = (s + 1) & (ids_.size() - 1);
    }
    return s;
  }
  std::uint32_t& operator[](std::size_t slot) { return ids_[slot]; }

 private:
  KeyOf key_of_;
  std::vector<std::uint32_t> ids_;
  int shift_ = 0;
};

// A pair of ranks as a key: (first << 32) | second.
std::uint64_t pair_key(std::uint32_t first, std::uint32_t second) {
  return std::uint64_t{first} << 32 | second;
}

}  // namespace

std::vector<std::uint64_t> sparse_affinity_edges(
    const TaskSetTable& sets,
    const std::function<bool(std::size_t both, std::size_t alone)>& is_edge,
    SetJoinStats* stats) {
  const std::size_t n = sets.accounts();
  SYBILTD_CHECK(n < (1ull << 32), "set join packs account ids into 32 bits");
  SetJoinStats local;
  local.accounts = n;
  local.exhaustive = true;
  std::vector<std::uint64_t> edges;

  // Each set's signature: a hash of its sorted task ids, the collapse key.
  std::size_t task_count = 0;
  std::size_t max_size = 0;
  std::vector<std::uint64_t> signature(n, 0);
  for (std::size_t a = 0; a < n; ++a) {
    const auto set = sets.of(a);
    std::uint64_t h = set.size();
    for (const std::uint32_t t : set) {
      h = (h + t) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 32;
    }
    signature[a] = h;
    if (!set.empty()) {
      task_count = std::max<std::size_t>(task_count, set.back() + 1);
    }
    max_size = std::max(max_size, set.size());
  }

  // Tier 1: collapse identical task sets behind their smallest account id.
  // A table maps each signature to the first account (in id order) with
  // it, and `same_signature` chains the later distinct sets with that
  // signature; a tie is settled by comparing the sets exactly.  `reps`
  // lists the non-empty distinct sets in id order.  There are at most n,
  // so one allocation holds them: a doubling series would leave its freed
  // blocks between the join's other arrays, which measurably fragments the
  // heap of long-running callers (docs/PERFORMANCE.md).
  std::vector<std::uint32_t> reps;
  reps.reserve(n);
  {
    IdTable first_with(n, [&](std::uint32_t a) { return signature[a]; });
    std::vector<std::uint32_t> same_signature(n, kNone);
    for (std::size_t a = 0; a < n; ++a) {
      std::uint32_t& first = first_with[first_with.slot(signature[a])];
      std::uint32_t rep = first;
      if (rep == kNone) first = static_cast<std::uint32_t>(a);
      const auto set = sets.of(a);
      if (rep != kNone) {
        // Find the set among the signature's chain, or append a new
        // distinct set to it.
        std::uint32_t last = rep;
        while (rep != kNone && !std::ranges::equal(sets.of(rep), set)) {
          last = rep;
          rep = same_signature[rep];
        }
        if (rep == kNone) same_signature[last] = static_cast<std::uint32_t>(a);
      }
      if (rep == kNone) {
        if (!set.empty()) reps.push_back(static_cast<std::uint32_t>(a));
        continue;
      }
      ++local.collapsed;
      // Identical sets: T = |set|, L = 0 for every within-group pair, so
      // is_edge(|set|, 0) decides them all, and a star to the
      // representative keeps the component connected.
      if (is_edge(set.size(), 0)) edges.push_back(pack_pair(rep, a));
    }
  }
  const std::size_t distinct = reps.size();
  local.distinct_sets = distinct;

  // Tier 2: the two-task prefix join.  Processing order is ascending size,
  // ties by representative id; rows and sizes are laid out in that order.
  std::vector<std::uint32_t> order(distinct);
  {
    std::vector<std::size_t> start(max_size + 2, 0);
    for (const std::uint32_t a : reps) ++start[sets.of(a).size() + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::uint32_t a : reps) order[start[sets.of(a).size()]++] = a;
  }
  std::vector<std::uint64_t> rows(distinct, 0);
  std::vector<std::uint32_t> sizes(distinct);
  std::vector<std::uint32_t> freq(task_count, 0);
  for (std::size_t p = 0; p < distinct; ++p) {
    const auto set = sets.of(order[p]);
    // The one-word row: bit t mod 64 for every task t, the exact bitset
    // when every task id is below 64.
    for (const std::uint32_t t : set) {
      rows[p] |= std::uint64_t{1} << (t % 64);
      ++freq[t];
    }
    sizes[p] = static_cast<std::uint32_t>(set.size());
  }
  // Rarest first: rank the tasks that occur by (frequency, id).
  std::vector<std::uint32_t> by_rank;
  for (std::size_t t = 0; t < task_count; ++t) {
    if (freq[t] != 0) by_rank.push_back(static_cast<std::uint32_t>(t));
  }
  std::sort(by_rank.begin(), by_rank.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
            });
  // The frequencies are spent; their storage maps each task to its rank.
  std::vector<std::uint32_t>& rank = freq;
  for (std::size_t r = 0; r < by_rank.size(); ++r) {
    rank[by_rank[r]] = static_cast<std::uint32_t>(r);
  }

  // Each joinable set's probe prefix (its lowest ranks, ascending) in CSR
  // form; its index prefix is the head of it.  Sets below kMinJoinSize
  // have an empty prefix.  An insertion sort bounded to the prefix length
  // keeps the lowest ranks seen so far.
  std::vector<std::size_t> prefix_begin(distinct + 1, 0);
  std::size_t index_entries = 0;
  for (std::size_t p = 0; p < distinct; ++p) {
    std::size_t len = 0;
    if (sizes[p] >= kMinJoinSize) {
      len = probe_prefix(sizes[p]);
      const std::size_t indexed = index_prefix(sizes[p]);
      index_entries += indexed * (indexed - 1) / 2;
    }
    prefix_begin[p + 1] = prefix_begin[p] + len;
  }
  std::vector<std::uint32_t> prefix(prefix_begin[distinct]);
  for (std::size_t p = 0; p < distinct; ++p) {
    if (sizes[p] < kMinJoinSize) continue;
    std::uint32_t* const out = prefix.data() + prefix_begin[p];
    const std::size_t keep = probe_prefix(sizes[p]);
    std::size_t filled = 0;
    for (const std::uint32_t t : sets.of(order[p])) {
      const std::uint32_t r = rank[t];
      if (filled == keep && r >= out[keep - 1]) continue;
      std::size_t k = filled < keep ? filled++ : keep - 1;
      for (; k > 0 && out[k - 1] > r; --k) out[k] = out[k - 1];
      out[k] = r;
    }
  }

  // The index: every joinable set enters the list of each pair of its
  // index prefix.  The directory maps pair keys to list ids (first seen
  // first); a list's entries are postings[list_begin[k], list_begin[k + 1])
  // in processing order, the order in which the probe loop fills them.
  // It holds at most one key per index entry and per pair of ranked tasks
  // (at most 2^32 of them, so the pair count fits in 64 bits).
  const std::size_t ranked = by_rank.size();
  std::vector<std::uint64_t> list_key;
  IdTable directory(std::min(index_entries, ranked * (ranked - 1) / 2),
                    [&](std::uint32_t k) { return list_key[k]; });
  std::vector<std::size_t> list_begin(1, 0);
  for (std::size_t p = 0; p < distinct; ++p) {
    if (sizes[p] < kMinJoinSize) continue;
    const std::uint32_t* own = prefix.data() + prefix_begin[p];
    const std::size_t len = index_prefix(sizes[p]);
    for (std::size_t i = 0; i < len; ++i) {
      for (std::size_t j = i + 1; j < len; ++j) {
        const std::uint64_t key = pair_key(own[i], own[j]);
        std::uint32_t& k = directory[directory.slot(key)];
        if (k == kNone) {
          SYBILTD_CHECK(list_key.size() < kNone,
                        "set join pair lists exceed 32-bit ids");
          k = static_cast<std::uint32_t>(list_key.size());
          list_key.push_back(key);
          list_begin.push_back(0);
        }
        ++list_begin[k + 1];
      }
    }
  }
  std::partial_sum(list_begin.begin(), list_begin.end(), list_begin.begin());
  std::vector<std::uint32_t> postings(index_entries);
  // [head, cursor) of a list is its live run: cursor passes the entries of
  // the sets already processed, head the ones the size filter dropped.
  std::vector<std::size_t> head(list_begin.begin(), list_begin.end() - 1);
  std::vector<std::size_t> cursor = head;

  // Each set gathers the live runs of all its probed lists and verifies
  // them in one kernel dispatch.  A set B sharing k prefix tasks with A is
  // in C(k, 2) of A's lists, so the survivors are stamped with their
  // prober and each pair gets one exact check.
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> hits;
  std::vector<std::uint32_t> checked_by(distinct, kNone);
  const simd::KernelTable& kernels = simd::kernels();
  for (std::size_t p = 0; p < distinct; ++p) {
    const std::uint64_t size_a = sizes[p];
    if (size_a < kMinJoinSize) continue;
    const std::uint32_t* own = prefix.data() + prefix_begin[p];
    const std::size_t probed = probe_prefix(size_a);
    const std::size_t indexed = index_prefix(size_a);
    candidates.clear();
    for (std::size_t i = 0; i + 1 < probed; ++i) {
      for (std::size_t j = i + 1; j < probed; ++j) {
        const std::uint32_t k =
            directory[directory.slot(pair_key(own[i], own[j]))];
        if (k == kNone) continue;
        // Size filter 3|B| > 2|A|: |A| never shrinks, so the head only
        // moves forward.
        std::size_t& h = head[k];
        while (h < cursor[k] &&
               3 * std::uint64_t{sizes[postings[h]]} <= 2 * size_a) {
          ++h;
        }
        ++local.lists;
        candidates.insert(candidates.end(), postings.begin() + h,
                          postings.begin() + cursor[k]);
        // A is the list's next entry; later sets see it.
        if (j < indexed) postings[cursor[k]++] = static_cast<std::uint32_t>(p);
      }
    }
    std::size_t kept = candidates.size();
    local.candidates += kept;
    // T <= popcount(row_A & row_B) + excess_A, where excess_A counts A's
    // tasks beyond the first in each bit (zero when all ids are below 64).
    // An edge therefore needs 5 popcount > 2(bound_A + |B|) with
    // bound_A = |A| - ceil(5 excess_A / 2); a negative bound filters
    // nothing, and every entry goes to the exact check.
    const std::uint64_t excess =
        size_a - static_cast<std::uint64_t>(std::popcount(rows[p]));
    const std::uint64_t slack = (5 * excess + 1) / 2;
    const std::uint32_t* survivors = candidates.data();
    if (kept != 0 && slack <= size_a) {
      hits.resize(std::max(hits.size(), kept));
      kept = kernels.set_join_verify(
          &rows[p], 1, static_cast<std::uint32_t>(size_a - slack),
          rows.data(), sizes.data(), candidates.data(), kept, hits.data());
      survivors = hits.data();
    }
    for (std::size_t x = 0; x < kept; ++x) {
      const std::uint32_t q = survivors[x];
      if (checked_by[q] == p) continue;
      checked_by[q] = static_cast<std::uint32_t>(p);
      const std::size_t both =
          intersection_size(sets.of(order[p]), sets.of(order[q]));
      if (is_edge(both, size_a + sizes[q] - 2 * both)) {
        edges.push_back(pack_pair(std::min(order[p], order[q]),
                                  std::max(order[p], order[q])));
      }
    }
  }
  // Each pair is emitted once: by its later set in processing order, or as
  // a star edge of the collapse, which joins identical sets only.
  std::sort(edges.begin(), edges.end());
  local.edges = edges.size();
  if (stats != nullptr) *stats = local;
  return edges;
}

}  // namespace sybiltd::candidate
