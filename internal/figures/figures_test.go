package figures

import (
	"strings"
	"testing"

	"wiban/internal/iob"
)

func TestAllGeneratorsProduceTables(t *testing.T) {
	for _, g := range All() {
		tab, err := g.Gen()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", g.Name)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: row width %d ≠ header %d", g.Name, len(row), len(tab.Header))
			}
		}
		r := tab.Render()
		if !strings.Contains(r, tab.ID) || !strings.Contains(r, tab.Header[0]) {
			t.Errorf("%s: render missing ID/header", g.Name)
		}
		csv := tab.CSV()
		if lines := strings.Count(csv, "\n"); lines != len(tab.Rows)+1 {
			t.Errorf("%s: CSV has %d lines, want %d", g.Name, lines, len(tab.Rows)+1)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tab, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// 4 node classes × 2 architectures.
	if len(tab.Rows) != 8 {
		t.Fatalf("Fig1 rows = %d, want 8", len(tab.Rows))
	}
	// Rows alternate conventional / human-inspired.
	for i := 0; i < len(tab.Rows); i += 2 {
		if tab.Rows[i][1] != "conventional" || tab.Rows[i+1][1] != "human-inspired" {
			t.Fatalf("row pair %d not conv/hi ordered", i)
		}
	}
}

func TestFig2AllConsistent(t *testing.T) {
	tab, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 11 {
		t.Fatalf("Fig2 rows = %d, want 11", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Errorf("%s: projection inconsistent with claimed band", row[0])
		}
	}
}

func TestFig3ResultShape(t *testing.T) {
	tab, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// One note per device marker, then the perpetual boundary.
	if len(tab.Notes) != len(iob.Fig3Markers())+1 {
		t.Fatalf("notes = %d, want one per marker plus the boundary", len(tab.Notes))
	}
}

// TestPaperClaims asserts every entry of the claims table, whose bounds
// are the one place each of the paper's numbers is held.
func TestPaperClaims(t *testing.T) {
	for _, c := range Claims() {
		t.Run(c.ID, func(t *testing.T) {
			if _, err := TableClaims(c.ID); err != nil {
				t.Errorf("%s (%s): %v", c.Statement, c.Section, err)
			}
		})
	}
}

func TestOffloadTableShape(t *testing.T) {
	tab, err := TableOffload()
	if err != nil {
		t.Fatal(err)
	}
	// 3 models × 3 links.
	if len(tab.Rows) != 9 {
		t.Fatalf("offload rows = %d, want 9", len(tab.Rows))
	}
	// Every Wi-R row must have cut 0 (sensor-only leaf).
	for _, row := range tab.Rows {
		if row[1] == "Wi-R" && !strings.HasPrefix(row[2], "0/") {
			t.Errorf("%s over Wi-R: cut %s, want 0/N", row[0], row[2])
		}
		if row[1] == "BLE 4.2" && strings.HasPrefix(row[2], "0/") {
			t.Errorf("%s over BLE: cut 0 should not be optimal", row[0])
		}
	}
}

func TestAblationCompressionShape(t *testing.T) {
	tab, err := AblationCompression()
	if err != nil {
		t.Fatal(err)
	}
	// 3 MJPEG qualities + 4 ECG policies.
	if len(tab.Rows) != 7 {
		t.Fatalf("ablation rows = %d, want 7", len(tab.Rows))
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Header: []string{"a", "b"},
		Rows: [][]string{{`has,comma`, `has"quote`}}}
	csv := tab.CSV()
	if !strings.Contains(csv, `"has,comma"`) || !strings.Contains(csv, `"has""quote"`) {
		t.Errorf("CSV quoting wrong: %q", csv)
	}
}
