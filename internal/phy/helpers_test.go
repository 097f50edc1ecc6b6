package phy

// Renderings that only these tests use; no binary links them.

import "fmt"

// String names the modulation.
func (m Modulation) String() string {
	switch m {
	case OOK:
		return "OOK"
	case BPSK:
		return "BPSK"
	case FSK2:
		return "2-FSK"
	case GFSK:
		return "GFSK"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}
