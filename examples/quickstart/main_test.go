package main

import (
	"io"
	"os"
	"testing"
)

// TestPrintsReport runs the example and checks its whole report: the
// network summary (it fits the Wi-R medium, or main exits), each node's
// battery-life class and the perpetual boundary.
func TestPrintsReport(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `quickstart BAN (3 nodes, hub wearable brain)
node               arch            link rate    sense        compute      comm         total
ecg-patch          human-inspired  3 kbps       10 µW        0 W          900 nW       10.9 µW
voice-mic          human-inspired  64 kbps      600 µW       20 µW        7 µW         627 µW
camera             human-inspired  1.15 Mbps    35 mW        500 µW       116 µW       35.6 mW
aggregate link rate 1.22 Mbps; hub power 50.2 mW (compute 5.1 MMAC/s)

node         link rate    node power   battery life class
ecg-patch    3 kbps       10.9 µW      10 yr        PERPETUAL (>1 yr)
voice-mic    64 kbps      627 µW       169 d        all-week+
camera       1.15 Mbps    35.6 mW      2.98 d       all-day+

perpetual region boundary on Wi-R: 48.4 kbps
`
	if string(got) != want {
		t.Errorf("quickstart printed:\n%s\nwant:\n%s", got, want)
	}
}
