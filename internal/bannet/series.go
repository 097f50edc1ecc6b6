package bannet

import (
	"math"

	"wiban/internal/desim"
	"wiban/internal/telemetry"
)

// emitSeries appends one sample per node at now to the report under
// construction, then opens the next attempt-counting window.
func (s *Sim) emitSeries(now desim.Time) {
	ms := int64(now.Seconds()*1000 + 0.5)
	for i := range s.states {
		st := &s.states[i]
		p := telemetry.SeriesPoint{Node: i, TimeMS: ms, Charge: 1, QueueDepth: st.queue.len()}
		if st.battState != nil {
			p.Charge = st.battState.FractionRemaining()
		}
		if st.winAttempts > 0 {
			p.LinkPER = float64(st.winFails) / float64(st.winAttempts)
			p.CollisionRate = float64(st.winCollisions) / float64(st.winAttempts)
		} else {
			p.LinkPER = math.NaN()
			p.CollisionRate = math.NaN()
		}
		st.winAttempts, st.winFails, st.winCollisions = 0, 0, 0
		s.rep.Series = append(s.rep.Series, p)
	}
	s.seriesLast = now
}
