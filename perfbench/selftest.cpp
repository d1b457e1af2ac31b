// Tests for the benchmark's own helpers (stats.hpp): quantiles and their
// sample counts, the output digest, and the layer table's remainder.
// Exits non-zero on the first failed expectation; `python3
// perfbench/run.py --self-test` builds and runs it.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void quantiles() {
  using perfbench::quantile;
  // Same values Python's statistics.quantiles(method="inclusive") gives.
  const std::vector<double> v{7.0, 1.0, 3.0, 5.0};
  expect(near(quantile(v, 0.0), 1.0), "q0 is the minimum");
  expect(near(quantile(v, 1.0), 7.0), "q1 is the maximum");
  expect(near(quantile(v, 0.5), 4.0), "median interpolates 3 and 5");
  expect(near(quantile(v, 0.25), 2.5), "first quartile interpolates");
  expect(near(perfbench::median({2.0}), 2.0), "median of one sample");
  bool threw = false;
  try {
    quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "quantile of no samples throws");
  threw = false;
  try {
    quantile(v, 1.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "q outside [0,1] throws");

  std::vector<double> many;
  for (int i = 1; i <= 1000; ++i) many.push_back(i);
  perfbench::Summary s = perfbench::summarize(many);
  expect(s.n == 1000, "summary keeps the sample count");
  expect(near(s.p50, 500.5), "summary median");
  expect(near(s.p99, 990.01), "summary p99");
  expect(near(s.mean, 500.5), "summary mean");
  expect(perfbench::summarize({}).n == 0, "empty summary is all zeros");

  using perfbench::supported_tail;
  expect(near(supported_tail(1000), 0.99), "1000 samples support the p99");
  expect(supported_tail(999) < 0.99, "999 samples do not");
  expect(near(supported_tail(5000), 0.99), "the level stops at the p99");
  expect(near(supported_tail(200), 0.95), "200 samples support the p95");
  expect(near(supported_tail(10), 0.5) && near(supported_tail(0), 0.5),
         "few samples fall back to the median");
}

void digests() {
  perfbench::Digest empty;
  expect(empty.hex() == "cbf29ce484222325", "empty digest is the FNV offset");
  perfbench::Digest a;
  a.line("a");
  // FNV-1a 64 of "a\n".
  expect(a.hex() == "089bdc07b544e7b2", "digest of one line is FNV-1a 64");
  perfbench::Digest ab_c;
  ab_c.line("ab");
  ab_c.line("c");
  perfbench::Digest a_bc;
  a_bc.line("a");
  a_bc.line("bc");
  expect(ab_c.value() != a_bc.value(), "line boundaries change the digest");
  perfbench::Digest again;
  again.line("ab");
  again.line("c");
  expect(again.value() == ab_c.value(), "same lines give the same digest");
  perfbench::Digest zero;
  zero.f64(0.0);
  perfbench::Digest negzero;
  negzero.f64(-0.0);
  expect(zero.value() != negzero.value(), "doubles hash by bit pattern");
  perfbench::Digest nan1;
  nan1.f64(std::nan(""));
  perfbench::Digest nan2;
  nan2.f64(std::nan(""));
  expect(nan1.value() == nan2.value(), "a NaN digests equal to itself");
  perfbench::Digest one;
  one.u64(1);
  perfbench::Digest shifted;
  shifted.u64(256);
  expect(one.value() != shifted.value(), "u64 hashes every byte in order");
  perfbench::Digest order;
  order.line("c");
  order.line("ab");
  expect(order.value() != ab_c.value(), "line order changes the digest");
}

void layers() {
  perfbench::LayerTable t(10.0);
  t.add("sim.ticks", 6.0);
  t.add("pipeline.on_period", 2.5);
  t.add("sim.ticks", 0.5);
  expect(near(t.get("sim.ticks"), 6.5), "adding a layer twice accumulates");
  expect(near(t.attributed(), 9.0), "attributed time sums the layers");
  expect(near(t.remainder(), 1.0), "remainder is wall minus the layers");
  expect(near(t.attributed() + t.remainder(), t.wall()),
         "layers plus remainder equal the wall");
  expect(near(t.share("sim.ticks"), 0.65), "share is layer over wall");
  expect(near(t.share("missing"), 0.0), "absent layer has no share");
  expect(t.leading() == "sim.ticks", "leading layer holds the most time");
  expect(t.leading({"sim.ticks"}) == "pipeline.on_period",
         "excluded layers cannot lead");
  expect(t.layers().size() == 2, "each layer listed once");
  perfbench::LayerTable over(1.0);
  over.add("a", 1.5);
  expect(near(over.remainder(), -0.5),
         "over-attribution shows as a negative remainder");
}

}  // namespace

int main() {
  quantiles();
  digests();
  layers();
  if (failures != 0) {
    std::cerr << failures << " expectation(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench self-test: all expectations hold\n";
  return EXIT_SUCCESS;
}
