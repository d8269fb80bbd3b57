#include "tpch/tpch_queries.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace holix {

namespace {

/// Group slot for Q1: returnflag in {0,1,2}, linestatus in {0,1}.
inline size_t Q1Group(int64_t returnflag, int64_t linestatus) {
  return static_cast<size_t>(returnflag * 2 + linestatus);
}

inline void Q1Accumulate(Q1Result& r, int64_t qty, double price, double disc,
                         int64_t tax, int64_t flag, int64_t status) {
  const size_t g = Q1Group(flag, status);
  const double disc_price = price * (1.0 - disc);
  r.sum_qty[g] += qty;
  r.sum_base_price[g] += price;
  r.sum_disc_price[g] += disc_price;
  r.sum_charge[g] += disc_price * (1.0 + static_cast<double>(tax) / 100.0);
  r.count[g] += 1;
}

inline bool NearOrEqual(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

bool ApproxEqual(double a, double b, double rel) {
  return NearOrEqual(a, b, rel);
}

bool ApproxEqual(const Q1Result& a, const Q1Result& b, double rel) {
  for (size_t g = 0; g < Q1Result::kGroups; ++g) {
    if (a.sum_qty[g] != b.sum_qty[g] || a.count[g] != b.count[g]) {
      return false;
    }
    if (!NearOrEqual(a.sum_base_price[g], b.sum_base_price[g], rel) ||
        !NearOrEqual(a.sum_disc_price[g], b.sum_disc_price[g], rel) ||
        !NearOrEqual(a.sum_charge[g], b.sum_charge[g], rel)) {
      return false;
    }
  }
  return true;
}

bool ApproxEqual(const Q6Result& a, const Q6Result& b, double rel) {
  return NearOrEqual(a.revenue, b.revenue, rel);
}

std::vector<int64_t> PayloadLane(const std::vector<double>& v) {
  std::vector<int64_t> lane(v.size());
  for (size_t i = 0; i < v.size(); ++i) lane[i] = PayloadLaneFromDouble(v[i]);
  return lane;
}

Q1Params RandomQ1Params(Rng& rng) {
  // qgen: DELTA in [60, 120] days before the end of the date range.
  Q1Params p;
  p.ship_cutoff = kTpchDateMax - (60 + static_cast<int64_t>(rng.Below(61)));
  return p;
}

Q6Params RandomQ6Params(Rng& rng) {
  Q6Params p;
  p.date_lo = static_cast<int64_t>(rng.Below(kTpchDateMax - 400));
  // Both bounds derive from integer percents exactly like the data values
  // (k / 100.0), so the inclusive double comparisons are exact.
  const int64_t lo_pct = 1 + static_cast<int64_t>(rng.Below(8));
  p.discount_lo = static_cast<double>(lo_pct) / 100.0;
  p.discount_hi = static_cast<double>(lo_pct + 2) / 100.0;
  p.max_quantity = 24 + static_cast<int64_t>(rng.Below(2));
  return p;
}

Q12Params RandomQ12Params(Rng& rng) {
  Q12Params p;
  p.date_lo = static_cast<int64_t>(rng.Below(kTpchDateMax - 400));
  p.mode1 = static_cast<int64_t>(rng.Below(kTpchNumShipModes));
  p.mode2 = static_cast<int64_t>(rng.Below(kTpchNumShipModes));
  while (p.mode2 == p.mode1) {
    p.mode2 = static_cast<int64_t>(rng.Below(kTpchNumShipModes));
  }
  return p;
}

// ---------------------------------------------------------------------
// Scan executor
// ---------------------------------------------------------------------

Q1Result TpchScanExecutor::Q1(const Q1Params& p) const {
  Q1Result r;
  const size_t n = d_.NumLineitems();
  for (size_t i = 0; i < n; ++i) {
    if (d_.l_shipdate[i] <= p.ship_cutoff) {
      Q1Accumulate(r, d_.l_quantity[i], d_.l_extendedprice[i],
                   d_.l_discount[i], d_.l_tax[i], d_.l_returnflag[i],
                   d_.l_linestatus[i]);
    }
  }
  return r;
}

Q6Result TpchScanExecutor::Q6(const Q6Params& p) const {
  Q6Result r;
  const size_t n = d_.NumLineitems();
  const int64_t date_hi = p.date_lo + 365;
  for (size_t i = 0; i < n; ++i) {
    if (d_.l_shipdate[i] >= p.date_lo && d_.l_shipdate[i] < date_hi &&
        d_.l_discount[i] >= p.discount_lo &&
        d_.l_discount[i] <= p.discount_hi &&
        d_.l_quantity[i] < p.max_quantity) {
      r.revenue += d_.l_extendedprice[i] * d_.l_discount[i];
    }
  }
  return r;
}

Q12Result TpchScanExecutor::Q12(const Q12Params& p) const {
  Q12Result r;
  const size_t n = d_.NumLineitems();
  const int64_t date_hi = p.date_lo + 365;
  for (size_t i = 0; i < n; ++i) {
    const int64_t mode = d_.l_shipmode[i];
    if ((mode != p.mode1 && mode != p.mode2) ||
        d_.l_receiptdate[i] < p.date_lo || d_.l_receiptdate[i] >= date_hi ||
        d_.l_commitdate[i] >= d_.l_receiptdate[i] ||
        d_.l_shipdate[i] >= d_.l_commitdate[i]) {
      continue;
    }
    const size_t slot = (mode == p.mode1) ? 0 : 1;
    const int64_t prio = d_.o_orderpriority[d_.l_orderkey[i] - 1];
    if (prio <= 1) {  // 1-URGENT or 2-HIGH
      r.high_line_count[slot] += 1;
    } else {
      r.low_line_count[slot] += 1;
    }
  }
  return r;
}

// ---------------------------------------------------------------------
// Presorted executor
// ---------------------------------------------------------------------

TpchPresortedExecutor::TpchPresortedExecutor(const TpchData& data)
    : d_(data) {
  auto build = [&](const std::vector<int64_t>& key, Projection& out) {
    const size_t n = key.size();
    out.perm.resize(n);
    std::iota(out.perm.begin(), out.perm.end(), 0u);
    std::stable_sort(out.perm.begin(), out.perm.end(),
                     [&](uint32_t a, uint32_t b) { return key[a] < key[b]; });
    out.sortkey.resize(n);
    for (size_t i = 0; i < n; ++i) out.sortkey[i] = key[out.perm[i]];
  };
  build(d_.l_shipdate, by_shipdate_);
  build(d_.l_receiptdate, by_receiptdate_);
}

Q1Result TpchPresortedExecutor::Q1(const Q1Params& p) const {
  Q1Result r;
  const auto& proj = by_shipdate_;
  const auto end = std::upper_bound(proj.sortkey.begin(), proj.sortkey.end(),
                                    p.ship_cutoff) -
                   proj.sortkey.begin();
  for (int64_t i = 0; i < end; ++i) {
    const uint32_t row = proj.perm[i];
    Q1Accumulate(r, d_.l_quantity[row], d_.l_extendedprice[row],
                 d_.l_discount[row], d_.l_tax[row], d_.l_returnflag[row],
                 d_.l_linestatus[row]);
  }
  return r;
}

Q6Result TpchPresortedExecutor::Q6(const Q6Params& p) const {
  Q6Result r;
  const auto& proj = by_shipdate_;
  const int64_t date_hi = p.date_lo + 365;
  const auto lo = std::lower_bound(proj.sortkey.begin(), proj.sortkey.end(),
                                   p.date_lo) -
                  proj.sortkey.begin();
  const auto hi = std::lower_bound(proj.sortkey.begin(), proj.sortkey.end(),
                                   date_hi) -
                  proj.sortkey.begin();
  for (int64_t i = lo; i < hi; ++i) {
    const uint32_t row = proj.perm[i];
    if (d_.l_discount[row] >= p.discount_lo &&
        d_.l_discount[row] <= p.discount_hi &&
        d_.l_quantity[row] < p.max_quantity) {
      r.revenue += d_.l_extendedprice[row] * d_.l_discount[row];
    }
  }
  return r;
}

Q12Result TpchPresortedExecutor::Q12(const Q12Params& p) const {
  Q12Result r;
  const auto& proj = by_receiptdate_;
  const int64_t date_hi = p.date_lo + 365;
  const auto lo = std::lower_bound(proj.sortkey.begin(), proj.sortkey.end(),
                                   p.date_lo) -
                  proj.sortkey.begin();
  const auto hi = std::lower_bound(proj.sortkey.begin(), proj.sortkey.end(),
                                   date_hi) -
                  proj.sortkey.begin();
  for (int64_t i = lo; i < hi; ++i) {
    const uint32_t row = proj.perm[i];
    const int64_t mode = d_.l_shipmode[row];
    if ((mode != p.mode1 && mode != p.mode2) ||
        d_.l_commitdate[row] >= d_.l_receiptdate[row] ||
        d_.l_shipdate[row] >= d_.l_commitdate[row]) {
      continue;
    }
    const size_t slot = (mode == p.mode1) ? 0 : 1;
    const int64_t prio = d_.o_orderpriority[d_.l_orderkey[row] - 1];
    if (prio <= 1) {
      r.high_line_count[slot] += 1;
    } else {
      r.low_line_count[slot] += 1;
    }
  }
  return r;
}

// ---------------------------------------------------------------------
// Cracked executor
// ---------------------------------------------------------------------

TpchCrackedExecutor::TpchCrackedExecutor(const TpchData& data) : d_(data) {
  by_shipdate_ = std::make_shared<CrackerColumn<int64_t>>(
      "lineitem.l_shipdate", d_.l_shipdate);
  by_shipdate_->AttachPayload(d_.l_quantity);
  // Double columns ride in the opaque 64-bit payload lanes bit-cast.
  by_shipdate_->AttachPayload(PayloadLane(d_.l_extendedprice));
  by_shipdate_->AttachPayload(PayloadLane(d_.l_discount));
  by_shipdate_->AttachPayload(d_.l_tax);
  by_shipdate_->AttachPayload(d_.l_returnflag);
  by_shipdate_->AttachPayload(d_.l_linestatus);

  by_receiptdate_ = std::make_shared<CrackerColumn<int64_t>>(
      "lineitem.l_receiptdate", d_.l_receiptdate);
  by_receiptdate_->AttachPayload(d_.l_shipmode);
  by_receiptdate_->AttachPayload(d_.l_commitdate);
  by_receiptdate_->AttachPayload(d_.l_shipdate);
  by_receiptdate_->AttachPayload(d_.l_orderkey);
}

Q1Result TpchCrackedExecutor::Q1(const Q1Params& p) {
  Q1Result r;
  auto& col = *by_shipdate_;
  auto accumulate = [&](const RowRun<int64_t>& run) {
    for (size_t i = run.pos; i < run.pos + run.size; ++i) {
      Q1Accumulate(r, col.PayloadAtUnsafe(kQty, i),
                   DoubleFromPayloadLane(col.PayloadAtUnsafe(kPrice, i)),
                   DoubleFromPayloadLane(col.PayloadAtUnsafe(kDisc, i)),
                   col.PayloadAtUnsafe(kTax, i),
                   col.PayloadAtUnsafe(kRetFlag, i),
                   col.PayloadAtUnsafe(kLineStatus, i));
    }
  };
  col.SelectRange(std::numeric_limits<int64_t>::min(), p.ship_cutoff + 1, {},
                  accumulate);
  return r;
}

Q6Result TpchCrackedExecutor::Q6(const Q6Params& p) {
  Q6Result r;
  auto& col = *by_shipdate_;
  auto accumulate = [&](const RowRun<int64_t>& run) {
    for (size_t i = run.pos; i < run.pos + run.size; ++i) {
      const double disc = DoubleFromPayloadLane(col.PayloadAtUnsafe(kDisc, i));
      if (disc >= p.discount_lo && disc <= p.discount_hi &&
          col.PayloadAtUnsafe(kQty, i) < p.max_quantity) {
        r.revenue += DoubleFromPayloadLane(col.PayloadAtUnsafe(kPrice, i)) * disc;
      }
    }
  };
  col.SelectRange(p.date_lo, p.date_lo + 365, {}, accumulate);
  return r;
}

Q12Result TpchCrackedExecutor::Q12(const Q12Params& p) {
  Q12Result r;
  auto& col = *by_receiptdate_;
  auto accumulate = [&](const RowRun<int64_t>& run) {
    for (size_t k = 0; k < run.size; ++k) {
      const size_t i = run.pos + k;
      const int64_t mode = col.PayloadAtUnsafe(kMode, i);
      const int64_t commit = col.PayloadAtUnsafe(kCommit, i);
      const int64_t ship = col.PayloadAtUnsafe(kShip, i);
      if ((mode == p.mode1 || mode == p.mode2) && commit < run.values[k] &&
          ship < commit) {
        const size_t slot = (mode == p.mode1) ? 0 : 1;
        const int64_t prio =
            d_.o_orderpriority[col.PayloadAtUnsafe(kOrderKey, i) - 1];
        if (prio <= 1) {
          r.high_line_count[slot] += 1;
        } else {
          r.low_line_count[slot] += 1;
        }
      }
    }
  };
  col.SelectRange(p.date_lo, p.date_lo + 365, {}, accumulate);
  return r;
}

std::shared_ptr<AdaptiveIndex> TpchCrackedExecutor::ShipdateIndex() {
  return std::make_shared<CrackerAdaptiveIndex<int64_t>>(by_shipdate_);
}

std::shared_ptr<AdaptiveIndex> TpchCrackedExecutor::ReceiptdateIndex() {
  return std::make_shared<CrackerAdaptiveIndex<int64_t>>(by_receiptdate_);
}

}  // namespace holix
