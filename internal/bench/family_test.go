package bench

import (
	"strconv"
	"testing"
	"time"

	"wflocks/internal/workload"
)

// scenarioCase is one family's quick-scale end-to-end case: scenarios
// driven through Scenario, the delay variants they sweep, an invalid
// scenario the family must reject, and the family's checks on each
// row (every family's rows are also checked to be header-wide).
type scenarioCase struct {
	names    []string
	variants []Variant
	rows     int
	stalls   bool // the table has a holder-stall regime
	bad      func() error
	check    func(t *testing.T, c cells)
}

// scenarioCases holds one case per family.
var scenarioCases = map[string]scenarioCase{
	"map": {
		names:    []string{"map:read"},
		variants: AllVariants,
		// 4 wfmap shard counts × 2 delay variants + 4 mutex shard
		// counts, raw regime only.
		rows: 12,
		bad: func() error {
			_, err := runSweep(&workload.MapScenario{Name: "bad", Keys: 0, GetPct: 100}, mapSweep, Quick, AllVariants)
			return err
		},
		check: func(t *testing.T, c cells) {
			c.positive(t, "ops/sec")
			if c.get("impl") != "mutex" {
				c.unitRate(t, "success")
			}
		},
	},
	"txn": {
		stalls: true,
		// Adaptive only: both variants at quick scale take ~6 s.
		names:    []string{"txn:transfer"},
		variants: []Variant{VariantAdaptive},
		// 4 wfmap L counts + 4 multimutex L counts, in 2 regimes.
		rows: 16,
		bad: func() error {
			_, err := runSweep(&workload.TxnScenario{Name: "bad", Keys: 0, TransferPct: 100}, txnSweep, Quick, AllVariants)
			return err
		},
		check: func(t *testing.T, c cells) {
			c.positive(t, "txns/sec")
			if got := c.get("conserved"); got != "yes" {
				t.Fatalf("row %v: conserved = %q, want yes", c.row, got)
			}
		},
	},
	"cache": {
		stalls:   true,
		names:    []string{"cache:zipf"},
		variants: AllVariants,
		// (4 wfcache shard counts × 2 delay variants) + 1 mutexlru, in
		// 2 stall regimes.
		rows: 18,
		bad: func() error {
			_, err := runSweep(&workload.CacheScenario{Name: "bad", Keys: 0, Capacity: 1, GetPct: 100}, cacheSweep, Quick, AllVariants)
			return err
		},
		check: func(t *testing.T, c cells) {
			c.positive(t, "ops/sec")
			hit, err := strconv.ParseFloat(c.get("hit%"), 64)
			if err != nil || hit < 0 || hit > 100 {
				t.Fatalf("row %v: bad hit%% %q", c.row, c.get("hit%"))
			}
			// The cache holds a quarter of the keyspace under zipf 1.2:
			// hit rates must sit well above the uniform floor for every
			// impl.
			if hit < 40 {
				t.Fatalf("row %v: hit%% %v suspiciously low", c.row, hit)
			}
		},
	},
	"queue": {
		stalls: true,
		// spsc for the single-queue topology, pipeline for the staged
		// one.
		names:    []string{"queue:spsc", "queue:pipeline"},
		variants: AllVariants,
		// 1 wfqueue + 4 workpool shard counts + channel + mutexring, in
		// 2 regimes.
		rows: 14,
		bad: func() error {
			_, err := runSweep(&workload.QueueScenario{Name: "bad", Capacity: 0, Stages: 1}, queueSweep, Quick, AllVariants)
			return err
		},
		check: func(t *testing.T, c cells) {
			c.positive(t, "items/sec")
			if impl := c.get("impl"); impl == "wfqueue" || impl == "workpool" {
				c.unitRate(t, "success")
			}
		},
	},
	"log": {
		stalls: true,
		// fanout for the live topology, replay for the prefilled one.
		names:    []string{"log:fanout", "log:replay"},
		variants: AllVariants,
		// 4 wflog shard counts + mutexslice + chanfan, in 2 regimes.
		rows: 12,
		bad: func() error {
			_, err := runSweep(&workload.LogScenario{Name: "bad", Producers: 1, Consumers: 1, Capacity: 0, Segment: 1}, logSweep, Quick, AllVariants)
			return err
		},
		check: func(t *testing.T, c cells) {
			c.positive(t, "deliv/sec")
			if c.get("impl") == "wflog" {
				c.unitRate(t, "success")
				if _, err := strconv.ParseUint(c.get("trimmed"), 10, 64); err != nil {
					t.Fatalf("row %v: bad trimmed %q", c.row, c.get("trimmed"))
				}
			}
		},
	},
	"service": {
		stalls:   true,
		names:    []string{"service:read"},
		variants: AllVariants,
		// 2 impls × 2 regimes.
		rows: 4,
		bad: func() error {
			bad := &workload.ServiceScenario{Name: "service:x", Backend: "nope", Rate: 1,
				Duration: time.Second, Conns: 1, Keys: 1, GetPct: 100}
			_, err := runSweep(bad, serviceSweep, Quick, AllVariants)
			return err
		},
		check: func(t *testing.T, c cells) {
			sent, err1 := strconv.ParseUint(c.get("sent"), 10, 64)
			done, err2 := strconv.ParseUint(c.get("done"), 10, 64)
			if err1 != nil || err2 != nil || sent == 0 || done != sent {
				t.Fatalf("row %v: sent %q, done %q; want every sent op answered", c.row, c.get("sent"), c.get("done"))
			}
			if c.get("errs") != "0" {
				t.Fatalf("row %v: %s protocol errors", c.row, c.get("errs"))
			}
			p50, err := time.ParseDuration(c.get("p50"))
			if err != nil || p50 <= 0 {
				t.Fatalf("row %v: bad p50 %q", c.row, c.get("p50"))
			}
			p999, err := time.ParseDuration(c.get("p99.9"))
			if err != nil || p999 < p50 {
				t.Fatalf("row %v: p99.9 %q below p50 %q", c.row, c.get("p99.9"), c.get("p50"))
			}
		},
	},
}

// testScenarioFamily runs a family's case: the invalid scenario is
// rejected, then each scenario's quick-scale table is run end to end
// and every row checked. Tables with a holder-stall regime sleep for
// real, so those runs are skipped in -short.
func testScenarioFamily(t *testing.T, family string) {
	tc := scenarioCases[family]
	if err := tc.bad(); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if testing.Short() && tc.stalls {
		t.Skip("stall-regime rows sleep for real; skip in -short")
	}
	for _, name := range tc.names {
		tab, err := Scenario(name)(Quick, tc.variants)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) != tc.rows {
			t.Fatalf("%s: table has %d rows, want %d", name, len(tab.Rows), tc.rows)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s row %v: %d cells, header has %d", name, row, len(row), len(tab.Header))
			}
			tc.check(t, cells{tab.Header, row})
		}
	}
}

func TestRunMapScenario(t *testing.T)     { testScenarioFamily(t, "map") }
func TestRunTxnScenario(t *testing.T)     { testScenarioFamily(t, "txn") }
func TestRunCacheScenario(t *testing.T)   { testScenarioFamily(t, "cache") }
func TestRunQueueScenario(t *testing.T)   { testScenarioFamily(t, "queue") }
func TestRunLogScenario(t *testing.T)     { testScenarioFamily(t, "log") }
func TestRunServiceScenario(t *testing.T) { testScenarioFamily(t, "service") }

// TestRunServiceScenarioRejectsInvalid covers the service runner's
// validation path on its own: a scenario naming an unknown backend is
// refused before any server is started.
func TestRunServiceScenarioRejectsInvalid(t *testing.T) {
	if err := scenarioCases["service"].bad(); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}

// TestScenarioFamiliesComplete pins the family table to the registry:
// every registered scenario has a runner, every family a test case,
// and an unregistered name has neither.
func TestScenarioFamiliesComplete(t *testing.T) {
	for _, in := range workload.Scenarios() {
		if Scenario(in.Name) == nil {
			t.Errorf("%s (%s) has no runner", in.Name, in.Kind)
		}
	}
	for _, fam := range workload.Families() {
		if _, ok := scenarioCases[fam]; !ok {
			t.Errorf("family %s has no test case", fam)
		}
	}
	if Scenario("map:nope") != nil || Scenario("bogus:x") != nil {
		t.Error("unregistered scenario has a runner")
	}
}

// cells reads one table row by column name.
type cells struct{ header, row []string }

func (c cells) get(col string) string {
	for i, h := range c.header {
		if h == col {
			return c.row[i]
		}
	}
	return ""
}

// positive fails unless the column parses as a positive number.
func (c cells) positive(t *testing.T, col string) {
	t.Helper()
	if v, err := strconv.ParseFloat(c.get(col), 64); err != nil || v <= 0 {
		t.Fatalf("row %v: bad %s %q", c.row, col, c.get(col))
	}
}

// unitRate fails unless the column parses as a rate in (0, 1].
func (c cells) unitRate(t *testing.T, col string) {
	t.Helper()
	if v, err := strconv.ParseFloat(c.get(col), 64); err != nil || v <= 0 || v > 1 {
		t.Fatalf("row %v: bad %s %q", c.row, col, c.get(col))
	}
}
