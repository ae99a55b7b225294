package workload

import "math/rand"

// KeyGen draws keys in [0, Keys). Zipfian and Scrambled satisfy it, so
// the phase combinators below compose with the existing popularity
// models. All generators are deterministic functions of the *rand.Rand
// they are handed — the same seed replays the same key sequence — which
// is what makes a magecache load run replayable from its seed.
type KeyGen interface {
	Next(rng *rand.Rand) int64
}

// HotStorm is a hot-key storm: StormFrac of the traffic collapses onto
// StormKeys specific keys (a viral post, a celebrity account, a
// thundering-herd cache fill), the rest follows the base popularity
// model. The storm keys are spread over the key space with the same FNV
// scramble Scrambled uses, so a storm does not accidentally align with
// the base distribution's hottest keys.
type HotStorm struct {
	base      KeyGen
	keys      int64
	stormKeys int64
	stormFrac float64
	stormSalt uint64
}

// NewHotStorm builds a storm over [0, keys): stormFrac of draws land on
// one of stormKeys scrambled hot keys, the remainder on base. salt
// decorrelates the storm set between runs/phases that share a key space.
func NewHotStorm(base KeyGen, keys, stormKeys int64, stormFrac float64, salt uint64) *HotStorm {
	if stormKeys < 1 {
		stormKeys = 1
	}
	if stormKeys > keys {
		stormKeys = keys
	}
	return &HotStorm{base: base, keys: keys, stormKeys: stormKeys, stormFrac: stormFrac, stormSalt: salt}
}

// Next implements KeyGen.
func (h *HotStorm) Next(rng *rand.Rand) int64 {
	if rng.Float64() < h.stormFrac {
		i := rng.Int63n(h.stormKeys)
		return int64(fnv64(uint64(i)^h.stormSalt) % uint64(h.keys))
	}
	return h.base.Next(rng)
}

// FlashCrowd models a flash crowd onto previously cold content: traffic
// shifts toward a contiguous cold segment of the key space, ramping
// linearly from zero to PeakFrac over RampDraws draws and holding there.
// Within the crowd segment keys are Zipf-popular (the crowd has its own
// hot items). The ramp is driven by the generator's own draw counter, so
// two generators with the same seed replay the same ramp.
type FlashCrowd struct {
	base      KeyGen
	crowd     *Zipfian
	crowdBase int64 // first key of the crowd segment
	peakFrac  float64
	rampDraws int64
	draws     int64
}

// NewFlashCrowd builds a crowd over the segment [crowdBase,
// crowdBase+crowdKeys) of [0, keys): the crowd's traffic share ramps
// 0→peakFrac over rampDraws draws.
func NewFlashCrowd(base KeyGen, keys, crowdBase, crowdKeys int64, peakFrac float64, rampDraws int64, theta float64) *FlashCrowd {
	if crowdKeys < 1 {
		crowdKeys = 1
	}
	if crowdKeys > keys {
		crowdKeys = keys
	}
	if crowdBase < 0 {
		crowdBase = 0
	}
	if crowdBase > keys-crowdKeys {
		crowdBase = keys - crowdKeys
	}
	if rampDraws < 1 {
		rampDraws = 1
	}
	return &FlashCrowd{
		base: base, crowd: NewZipfian(crowdKeys, theta),
		crowdBase: crowdBase, peakFrac: peakFrac, rampDraws: rampDraws,
	}
}

// Next implements KeyGen.
func (f *FlashCrowd) Next(rng *rand.Rand) int64 {
	frac := f.peakFrac
	if f.draws < f.rampDraws {
		frac = f.peakFrac * float64(f.draws) / float64(f.rampDraws)
	}
	f.draws++
	if rng.Float64() < frac {
		return f.crowdBase + f.crowd.Next(rng)
	}
	return f.base.Next(rng)
}

// Phase is one leg of a phased key stream: Draws keys from Gen. The
// last phase of a schedule may set Draws to 0, meaning "until the
// consumer stops".
type Phase struct {
	Name  string
	Draws int64
	Gen   KeyGen
}

// PhasedKeys walks a phase schedule: each Next draws from the current
// phase's generator and advances the schedule. It satisfies KeyGen, so
// phases nest. Not safe for sharing across threads — like every
// generator here, each stream owns its own.
type PhasedKeys struct {
	phases []Phase
	idx    int
	left   int64
}

// NewPhasedKeys builds a schedule from phases. Panics on an empty
// schedule.
func NewPhasedKeys(phases ...Phase) *PhasedKeys {
	if len(phases) == 0 {
		panic("workload: empty phase schedule")
	}
	return &PhasedKeys{phases: phases, left: phases[0].Draws}
}

// CurrentPhase returns the active phase's name.
func (p *PhasedKeys) CurrentPhase() string { return p.phases[p.idx].Name }

// Next implements KeyGen, advancing the schedule.
func (p *PhasedKeys) Next(rng *rand.Rand) int64 {
	for p.idx < len(p.phases)-1 && p.phases[p.idx].Draws > 0 && p.left <= 0 {
		p.idx++
		p.left = p.phases[p.idx].Draws
	}
	p.left--
	return p.phases[p.idx].Gen.Next(rng)
}

// StandardPhases is the canonical three-phase traffic model the
// magecache load generator runs: steady Zipf(theta), then
// a hot-key storm (90% of traffic onto 16 keys), then a flash crowd
// ramping half the traffic onto a previously cold eighth of the key
// space. drawsPerPhase sizes each leg.
func StandardPhases(keys int64, theta float64, drawsPerPhase int64) []Phase {
	base := func() KeyGen { return NewScrambled(keys, theta) }
	crowdKeys := keys / 8
	if crowdKeys < 1 {
		crowdKeys = 1
	}
	return []Phase{
		{Name: "zipf", Draws: drawsPerPhase, Gen: base()},
		{Name: "hot-key-storm", Draws: drawsPerPhase, Gen: NewHotStorm(base(), keys, 16, 0.9, 0x5307)},
		{Name: "flash-crowd", Draws: drawsPerPhase, Gen: NewFlashCrowd(base(), keys, keys-crowdKeys, crowdKeys, 0.5, drawsPerPhase/2, theta)},
	}
}
