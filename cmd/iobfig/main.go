// Command iobfig regenerates the paper's figures and tables.
//
// Usage:
//
//	iobfig -all            # every figure/table
//	iobfig -fig 3          # one figure (1, 2 or 3)
//	iobfig -table offload  # one named table (see -list)
//	iobfig -table claims   # the paper's claims; exits 1 naming any that fails
//	iobfig -all -csv       # CSV instead of aligned text
package main

import (
	"flag"
	"fmt"
	"os"

	"wiban/internal/figures"
)

func main() {
	var (
		all   = flag.Bool("all", false, "render every figure and table")
		fig   = flag.Int("fig", 0, "render figure N (1, 2 or 3)")
		table = flag.String("table", "", "render a named table (see -list)")
		asCSV = flag.Bool("csv", false, "emit CSV instead of aligned text")
		list  = flag.Bool("list", false, "list available figures/tables")
	)
	flag.Parse()

	gens := figures.All()
	if *list {
		for _, g := range gens {
			fmt.Println(g.Name)
		}
		return
	}

	want := map[string]bool{}
	switch {
	case *all:
		for _, g := range gens {
			want[g.Name] = true
		}
	case *fig != 0:
		want[fmt.Sprintf("fig%d", *fig)] = true
	case *table != "":
		want[*table] = true
	default:
		flag.Usage()
		os.Exit(2)
	}

	matched := 0
	for _, g := range gens {
		if !want[g.Name] {
			continue
		}
		matched++
		t, err := g.Gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "iobfig: %s: %v\n", g.Name, err)
			os.Exit(1)
		}
		if *asCSV {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "iobfig: nothing matched; try -list\n")
		os.Exit(2)
	}
}
