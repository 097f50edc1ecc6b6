package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"wiban/internal/figures"
)

// TestMain lets TestCLI re-exec this binary as iobfig, so the exit codes
// are the real process's.
func TestMain(m *testing.M) {
	if os.Getenv("IOBFIG_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestCLI(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func(args string) (string, int) {
		cmd := exec.Command(bin, strings.Fields(args)...)
		cmd.Env = append(os.Environ(), "IOBFIG_RUN_MAIN=1")
		out, err := cmd.Output()
		if err != nil && cmd.ProcessState == nil {
			t.Fatal(err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}
	for args, want := range map[string]int{"-list": 0, "-all": 0, "-all -csv": 0, "-table claims": 0, "-table nope": 2} {
		if _, code := run(args); code != want {
			t.Errorf("iobfig %s: exit %d, want %d", args, code, want)
		}
	}

	list, _ := run("-list")
	all, _ := run("-all")
	var names []string
	for _, g := range figures.All() {
		tab, err := g.Gen()
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		names = append(names, g.Name)
		if n := strings.Count("\n"+all, "\n== "+tab.ID+": "); n != 1 {
			t.Errorf("-all prints table %s %d times, want once", tab.ID, n)
		}
	}
	if want := strings.Join(names, "\n") + "\n"; list != want {
		t.Errorf("-list printed %q, want %q", list, want)
	}
}
