package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"albireo/internal/core"
	"albireo/internal/health"
	"albireo/internal/inference"
	"albireo/internal/nn"
	"albireo/internal/obs"
	"albireo/internal/perf"
	"albireo/internal/tensor"
	"albireo/internal/units"
)

// modelSeed fixes the weights of every benchmark network: the model is
// the system under test, and the workload seed varies only its inputs
// and the chip's noise streams.
const modelSeed = 1

// Request counts outside the timed loop.
const (
	warmups = 1 // untimed requests in set-up that fill the weight-program cache
	checks  = 4 // requests of the fidelity pass
	inputs  = 8 // distinct inputs per run; requests cycle through them
)

// simInstance is a set-up closed-loop workload on one analog chip: a
// single client times the reference kernel and then sends the next
// request, as soon as the last returns.
type simInstance struct {
	chip   *core.Chip
	analog inference.Analog
	reg    *obs.Registry
	// request runs request i on be and returns its outputs flattened.
	request func(i int, be inference.Backend, sc *scope) []float64
	outLen  int
	next    int
	model   nn.Model
	ref     *refKernel // timed before each request
}

// setupSim builds the chip, runs its start-up BIST scan (quarantining
// any findings), and warms the weight-program cache. It returns the
// instance, the BIST time, and the digest of the warm-up outputs.
func setupSim(seed int64, model nn.Model, request func(int, inference.Backend, *scope) []float64) (*simInstance, setupInfo, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	s := &simInstance{analog: inference.NewAnalog(cfg), reg: obs.NewRegistry(), request: request, model: model, ref: newRefKernel()}
	s.chip = s.analog.Chip
	var info setupInfo
	t0 := time.Now()
	eng := health.New(s.chip, health.Options{})
	if rep := eng.Scan(); !rep.Healthy() {
		if _, err := eng.QuarantineFindings(rep); err != nil {
			return nil, info, fmt.Errorf("quarantine BIST findings: %w", err)
		}
	}
	info.bist = time.Since(t0)
	h := sha256.New()
	for i := 0; i < warmups; i++ {
		out := s.request(s.next, s.analog, nil)
		s.next++
		s.outLen = len(out)
		for _, v := range out {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	info.digest = hex.EncodeToString(h.Sum(nil))
	return s, info, nil
}

func (s *simInstance) measure(d time.Duration, tr *tracer) phase {
	var be inference.Backend = s.analog
	var probe *coreProbe
	if tr != nil {
		s.chip.Instrument(s.reg, nil)
		defer s.chip.Instrument(nil, nil)
		probe = &coreProbe{inner: s.analog}
		be = probe
	}
	var ph phase
	start := time.Now()
	deadline := start.Add(d)
	for ph.attempted == 0 || time.Now().Before(deadline) {
		var sc *scope
		if tr != nil {
			sc = &scope{tr: tr, req: int64(s.next + 1)}
			probe.sc = sc
		}
		var out []float64
		ref := s.ref.time()
		t0 := time.Now()
		sc.span("bench/request", func() { out = s.request(s.next, be, sc) })
		lat := msSince(t0)
		ph.lat, ph.ref, ph.norm = append(ph.lat, lat), append(ph.ref, ref), append(ph.norm, lat/ref)
		s.next++
		ph.attempted++
		if len(out) != s.outLen || !finite(out) {
			ph.failed++
		}
	}
	ph.throughput = float64(ph.attempted) / time.Since(start).Seconds()
	return ph
}

func (s *simInstance) registry() *obs.Registry { return s.reg }

// check runs the fidelity pass: every chip call of a few requests is
// compared with the exact reference on the same inputs.
func (s *simInstance) check() ([]float64, error) {
	f := &fidelity{}
	probe := &coreProbe{inner: s.analog}
	probe.fid.Store(f)
	for i := 0; i < checks; i++ {
		s.request(s.next, probe, nil)
		s.next++
	}
	return f.values(), nil
}

func (s *simInstance) hw() (cycles, energyNJ float64) { return modeledCost(s.model) }

func (s *simInstance) close() error { return nil }

// modeledCost prices one request of model on the default Albireo-C
// design: modulation cycles and energy in nanojoules.
func modeledCost(model nn.Model) (cycles, energyNJ float64) {
	cfg := core.DefaultConfig()
	return float64(cfg.MapModel(model).TotalCycles), perf.Evaluate(cfg, model).Energy / units.Nano
}

// cnnRequest serves a CNN: request i classifies input i mod inputs.
func cnnRequest(c cnn, seed int64) func(int, inference.Backend, *scope) []float64 {
	vols := make([]*tensor.Volume, inputs)
	for i := range vols {
		vols[i] = tensor.RandomVolume(c.inZ, c.size, c.size, seed*inputs+int64(i))
	}
	return func(i int, be inference.Backend, sc *scope) []float64 {
		var logits []float64
		sc.span("inference/run", func() { logits = c.net.Run(be, vols[i%inputs]) })
		return logits
	}
}

// Workload sizes: smoke sizes keep the package tests fast.
func resnetCNN(smoke bool) cnn {
	if smoke {
		return resNet18([4]int{4, 4, 8, 8}, 8, modelSeed)
	}
	return resNet18([4]int{16, 32, 64, 128}, 8, modelSeed)
}

func mobilenetDWPW(smoke bool) cnn {
	if smoke {
		return mobileNetV1(4, 32, modelSeed)
	}
	return mobileNetV1(16, 32, modelSeed)
}

func gemmZooSpec(smoke bool) gemmSpec {
	if smoke {
		return gemmSpec{seq: 4, dim: 8, ffn: 16, lstmIn: 8, hidden: 8, batch: 2, steps: 2}
	}
	return gemmSpec{seq: 32, dim: 64, ffn: 256, lstmIn: 64, hidden: 64, batch: 4, steps: 8}
}

func setupCNN(c cnn) func(int64, string) (instance, setupInfo, error) {
	return func(seed int64, _ string) (instance, setupInfo, error) {
		return setupSim(seed, c.model, cnnRequest(c, seed))
	}
}

func setupGEMM(s gemmSpec) func(int64, string) (instance, setupInfo, error) {
	return func(seed int64, _ string) (instance, setupInfo, error) {
		z := newGEMMZoo(s, modelSeed)
		ins := make([]gemmInput, inputs)
		for i := range ins {
			ins[i] = z.input(seed*1000 + int64(i)*100)
		}
		return setupSim(seed, z.model, func(i int, be inference.Backend, sc *scope) []float64 {
			out, h := z.run(be, ins[i%inputs], sc)
			return append(append([]float64(nil), out.Data...), h.Data...)
		})
	}
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
