package radio

// Transceiver queries that only these tests make; no binary links them.

import "wiban/internal/units"

// EnergyPerPacket returns the TX energy for one payload of payloadBits,
// including framing and one wake transition.
func (t *Transceiver) EnergyPerPacket(payloadBits int) units.Energy {
	return t.ActiveTX.Times(t.TimeOnAir(payloadBits)) + t.WakeEnergy
}
