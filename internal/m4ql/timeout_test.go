package m4ql

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"m4lsm/internal/govern"
	"m4lsm/internal/series"
)

func TestParseTimeoutClause(t *testing.T) {
	for _, q := range []string{
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 250`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 250 USING UDF`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) STRICT TIMEOUT 250 PARALLEL 2`,
	} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if stmt.Timeout != 250*time.Millisecond {
			t.Errorf("%s: timeout = %v", q, stmt.Timeout)
		}
	}
	if stmt, err := Parse(`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4)`); err != nil || stmt.Timeout != 0 {
		t.Errorf("absent clause: stmt=%+v err=%v", stmt, err)
	}
	bad := []string{
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 0`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT -5`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT`,
		`SELECT M4(*) FROM s WHERE time >= 0 AND time < 100 GROUP BY SPANS(4) TIMEOUT 5 TIMEOUT 5`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted: %s", q)
		}
	}
}

// TestExecuteTimeoutAndBudget: a generous TIMEOUT changes nothing; context
// limits (the server's defaults) cap the query, degrading it in lenient
// mode and failing it typed under STRICT.
func TestExecuteTimeoutAndBudget(t *testing.T) {
	e := newEngine(t)
	for i := 0; i < 200; i++ {
		e.Write("s", series.Point{T: int64(i * 5), V: float64((i * 13) % 31)})
		if i%20 == 19 {
			e.Flush() // many small overlapping-era chunks
		}
	}
	e.Flush()
	e.Delete("s", 200, 400)

	base, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7)`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7) TIMEOUT 60000`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, base.Rows) {
		t.Error("generous TIMEOUT changed the result")
	}

	// Server-wide defaults arrive through the context.
	ctx := govern.WithLimits(context.Background(), govern.Limits{MaxChunks: 1})
	res, err = RunContext(ctx, e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7)`)
	if err != nil {
		t.Fatalf("lenient budgeted query must degrade, not fail: %v", err)
	}
	if !res.Partial || len(res.Warnings) == 0 {
		t.Fatalf("budget-capped query not marked partial (partial=%v warnings=%d)", res.Partial, len(res.Warnings))
	}
	for _, w := range res.Warnings {
		if !strings.Contains(w, "budget") && !strings.Contains(w, "unreadable") {
			t.Fatalf("unexpected warning shape: %q", w)
		}
	}

	_, err = RunContext(ctx, e, `SELECT M4(*) FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7) STRICT`)
	if !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("strict budget-capped query: got %v, want ErrBudgetExceeded", err)
	}

	// GROUP BY statements run under the same governance: the envelope set
	// on the merge-free operator, the COUNT set on the merge reader.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, sel := range []string{`MIN(value), MAX(value)`, `COUNT(value)`} {
		stmt := `SELECT ` + sel + ` FROM s WHERE time >= 0 AND time < 1000 GROUP BY SPANS(7)`
		res, err := RunContext(ctx, e, stmt)
		if err != nil {
			t.Fatalf("%s: lenient budgeted query must degrade, not fail: %v", sel, err)
		}
		if !res.Partial || len(res.Warnings) == 0 {
			t.Fatalf("%s: budget-capped query not marked partial (partial=%v warnings=%d)", sel, res.Partial, len(res.Warnings))
		}
		for _, w := range res.Warnings {
			if !strings.Contains(w, "budget") {
				t.Fatalf("%s: unexpected warning shape: %q", sel, w)
			}
		}
		if _, err := RunContext(ctx, e, stmt+` STRICT`); !errors.Is(err, govern.ErrBudgetExceeded) {
			t.Fatalf("%s: strict budget-capped query: got %v, want ErrBudgetExceeded", sel, err)
		}
		if _, err := RunContext(cancelled, e, stmt); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled query: got %v, want context.Canceled", sel, err)
		}
	}
}
