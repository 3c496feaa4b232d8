package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/timeseries"
)

// This file makes antagonist identification pluggable. The paper ships
// exactly one algorithm — the §4.2 cross-correlation with its 0.35
// threshold — and reports it noisy in production; PANDA is Google's
// own successor, built because the correlator misfires under
// measurement noise. The Identifier interface turns every future
// identification idea into a one-file plugin scored by the
// internal/experiments A/B testbed against the interference model's
// ground-truth antagonists.

// Identifier names accepted by NewIdentifier and Params.Identifier.
const (
	// IdentifierCorrelation is the paper's §4.2 cross-correlation
	// scorer (the default).
	IdentifierCorrelation = "correlation"
	// IdentifierPanda is the PANDA-style noise-resilient scorer:
	// robust z-score normalization of victim CPI against the spec's
	// Welford moments plus per-colocation evidence accumulated across
	// analysis rounds.
	IdentifierPanda = "panda"
)

// IdentifierNames lists the registered identifier names, for flag
// help text and error messages.
func IdentifierNames() []string {
	return []string{IdentifierCorrelation, IdentifierPanda}
}

// IdentifyInput is one identification round's evidence: the anomalous
// victim, its CPI history, the spec moments it was judged against, and
// the co-located suspects with their CPU-usage histories.
type IdentifyInput struct {
	// Victim is the anomalous task whose antagonist is sought.
	Victim model.TaskID
	// VictimCPI is the victim's recorded CPI series.
	VictimCPI *timeseries.Series
	// Threshold is the victim's abnormal-CPI threshold
	// (spec mean + OutlierSigma·σ).
	Threshold float64
	// SpecMean / SpecStddev are the victim spec's Welford moments
	// (zero when the spec carries none; identifiers must cope).
	SpecMean   float64
	SpecStddev float64
	// Now is the analysis time; the look-back window is [Now−Window, Now).
	Now    time.Time
	Window time.Duration
	// Period is the sampling period used for time alignment.
	Period time.Duration
	// Suspects are the co-located candidate antagonists.
	Suspects []SuspectInput
}

// Identifier ranks a victim's co-located suspects. Implementations
// must return every scoreable suspect in descending score order with a
// deterministic tie-break (enforcement filtering is the cap policy's
// job, exactly as with RankSuspects), and must be deterministic: the
// same input sequence yields the same output sequence, regardless of
// goroutine interleaving elsewhere. Stateful implementations key any
// cross-round state by task identity only — never by wall-clock or map
// iteration order.
type Identifier interface {
	// Name reports the registered identifier name; incidents are tagged
	// with it.
	Name() string
	// Identify scores and ranks the suspects for one analysis round.
	Identify(in IdentifyInput) []Suspect
}

// NewIdentifier builds the named identifier with tunables from p. The
// empty name selects the default (IdentifierCorrelation). Unknown
// names are an error — callers parsing flags should surface it;
// NewManager treats it as a configuration bug and panics.
func NewIdentifier(name string, p Params) (Identifier, error) {
	switch name {
	case "", IdentifierCorrelation:
		return CorrelationIdentifier{}, nil
	case IdentifierPanda:
		return NewPandaIdentifier(p), nil
	}
	return nil, fmt.Errorf("core: unknown identifier %q (have: %s)",
		name, strings.Join(IdentifierNames(), ", "))
}

// CorrelationIdentifier is the reference implementation: the paper's
// §4.2 usage-weighted cross-correlation, unchanged. It is stateless —
// each round scores the current window in isolation.
type CorrelationIdentifier struct{}

// Name implements Identifier.
func (CorrelationIdentifier) Name() string { return IdentifierCorrelation }

// Identify implements Identifier by delegating to RankSuspects.
func (CorrelationIdentifier) Identify(in IdentifyInput) []Suspect {
	return RankSuspects(in.VictimCPI, in.Threshold, in.Suspects, in.Now, in.Window, in.Period)
}

// PANDA-style tunables. The per-round score and the accumulated
// evidence both live in [−1, 1], so PandaIdentifier scores are
// directly comparable to CorrelationThreshold.
const (
	// pandaAlpha is the EWMA weight of the newest round. 0.3 is chosen
	// so a single perfect window (score 0.3) stays below the 0.35
	// reporting threshold — one noisy window neither convicts nor
	// acquits — while two consistent windows (≈0.51) convict.
	pandaAlpha = 0.3
	// pandaSaturationSigmas is how many spec standard deviations above
	// the outlier bar saturate the per-pair evidence at 1: a 2σ spec
	// threshold reaches full evidence at 6σ. Symmetrically, evidence
	// bottoms out at −1 the same distance below the bar, so a suspect
	// running hot while the victim sits at its spec mean accrues
	// negative evidence.
	pandaSaturationSigmas = 4.0
)

// taskPair keys per-colocation state by victim and suspect: the same
// suspect can be innocent next to one victim and guilty next to
// another. PANDA keys its evidence by it, the cap policy its feedback
// rounds.
type taskPair struct {
	victim  model.TaskID
	suspect model.TaskID
}

type pandaEvidence struct {
	score float64
	at    time.Time
}

// PandaIdentifier is a PANDA-style noise-resilient scorer. Two changes
// versus the §4.2 correlator:
//
//  1. Noise-aware normalization: each aligned victim-CPI value is
//     turned into a robust z-score against the spec's Welford moments
//     ((c − mean)/σ), then into saturating evidence in [−1, 1] centred
//     on the outlier bar — instead of the correlator's single hard
//     threshold, where a value at 1.01× threshold counts like one at
//     10×.
//  2. Evidence accumulation: per-round scores are folded into an EWMA
//     keyed by victim×suspect pair, decayed with a half-life of the
//     correlation window, so conviction needs consistency across
//     rounds and one chance-aligned window cannot convict an innocent
//     bursty co-tenant.
//
// Determinism: evidence is keyed lookup only — output order never
// depends on map iteration — and decay uses analysis timestamps, never
// the wall clock.
type PandaIdentifier struct {
	outlierSigma float64
	halfLife     time.Duration

	mu       sync.Mutex
	evidence map[taskPair]pandaEvidence
}

// NewPandaIdentifier builds a PANDA-style identifier with tunables
// from p (sanitized).
func NewPandaIdentifier(p Params) *PandaIdentifier {
	p = p.Sanitize()
	return &PandaIdentifier{
		outlierSigma: p.OutlierSigma,
		halfLife:     p.CorrelationWindow,
		evidence:     make(map[taskPair]pandaEvidence),
	}
}

// Name implements Identifier.
func (pi *PandaIdentifier) Name() string { return IdentifierPanda }

// Identify implements Identifier.
func (pi *PandaIdentifier) Identify(in IdentifyInput) []Suspect {
	sd := in.SpecStddev
	if sd <= 0 && pi.outlierSigma > 0 && in.Threshold > in.SpecMean {
		// The detector's threshold is spec mean + OutlierSigma·σ, so a
		// spec that arrived without moments still implies them.
		sd = (in.Threshold - in.SpecMean) / pi.outlierSigma
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return rankAligned(in.VictimCPI, in.Suspects, in.Now, in.Window, in.Period,
		func(task model.TaskID, cpi, usage []float64) float64 {
			round := pi.roundScore(cpi, usage, in.Threshold, in.SpecMean, sd)
			key := taskPair{victim: in.Victim, suspect: task}
			score := pandaAlpha * round // unseen pairs start from zero evidence
			if prev, ok := pi.evidence[key]; ok {
				w := prev.score
				if age := in.Now.Sub(prev.at); age > 0 && pi.halfLife > 0 {
					w *= math.Pow(0.5, float64(age)/float64(pi.halfLife))
				}
				score = (1-pandaAlpha)*w + pandaAlpha*round
			}
			pi.evidence[key] = pandaEvidence{score: score, at: in.Now}
			return score
		})
}

// roundScore computes one window's usage-weighted evidence in [−1, 1].
// With no usable spec moments it falls back to the §4.2 score for the
// round — evidence accumulation still applies on top.
func (pi *PandaIdentifier) roundScore(cpi, usage []float64, threshold, mean, sd float64) float64 {
	n := len(cpi)
	if n == 0 || len(usage) != n {
		return 0
	}
	if sd <= 0 {
		return Correlation(cpi, usage, threshold)
	}
	// Normalize usage over the pairs actually scored, exactly as
	// Correlation does post-fix.
	var usum float64
	for i, u := range usage {
		if u > 0 && cpi[i] > 0 {
			usum += u
		}
	}
	if usum == 0 {
		return 0
	}
	span := pandaSaturationSigmas
	var score float64
	for i := 0; i < n; i++ {
		c, u := cpi[i], usage[i]
		if u <= 0 || c <= 0 {
			continue
		}
		z := (c - mean) / sd
		e := (z - pi.outlierSigma) / span
		if e > 1 {
			e = 1
		} else if e < -1 {
			e = -1
		}
		score += (u / usum) * e
	}
	return score
}

// Forget drops all evidence involving task, as victim or suspect.
// Manager.TaskExited calls this so evidence never leaks across task
// lifetimes (a restarted task index must start from zero).
func (pi *PandaIdentifier) Forget(task model.TaskID) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	for k := range pi.evidence {
		if k.victim == task || k.suspect == task {
			delete(pi.evidence, k)
		}
	}
}

// EvidencePairs reports how many victim×suspect pairs currently hold
// evidence (state-size introspection for tests and debugging).
func (pi *PandaIdentifier) EvidencePairs() int {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return len(pi.evidence)
}
