package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/balance"
	"repro/internal/cgm"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/pdm"
	"repro/internal/permute"
	"repro/internal/wordcodec"
	"repro/internal/workload"
)

// probeDur is how long each microprobe measures. The probes run once per
// process and give each layer's own ceiling, outside any workload.
const probeDur = 300 * time.Millisecond

// probes measures the five microprobes.
func probes(e *env) (map[string]float64, error) {
	m := map[string]float64{}
	for _, p := range []struct {
		name string
		run  func(*env) (float64, error)
	}{
		{"pdm.dispatch_ns_per_pio", probeDispatch},
		{"pdm.roofline_mb_per_s", probeRoofline},
		{"layout.reqs_per_s", probeLayout},
		{"balance.items_per_s", probeBalance},
		{"core.noop_superstep_us", probeNoopSuperstep},
	} {
		v, err := p.run(e)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		m[p.name] = v
	}
	return m, nil
}

// probeDispatch is pdm's cost of one split-phase parallel I/O with no
// device behind it: Begin and Wait on a D=2, B=512 memory array,
// alternating writes and reads of one stripe.
func probeDispatch(*env) (float64, error) {
	arr := pdm.NewMemArray(2, 512)
	defer arr.Close()
	reqs := []pdm.BlockReq{{Disk: 0, Track: 0}, {Disk: 1, Track: 0}}
	bufs := [][]pdm.Word{make([]pdm.Word, 512), make([]pdm.Word, 512)}
	ops := 0
	start := time.Now()
	for time.Since(start) < probeDur {
		for i := 0; i < 256; i++ {
			begin := arr.BeginWriteBlocks
			if i%2 == 1 {
				begin = arr.BeginReadBlocks
			}
			p, err := begin(reqs, bufs)
			if err != nil {
				return 0, err
			}
			if err := p.Wait(); err != nil {
				return 0, err
			}
			ops++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}

// probeRoofline is the device's rate at the largest batch pdm issues:
// 64-track WriteTracks then ReadTracks over one file disk at B=512, under
// O_DIRECT where the scratch directory has it.
func probeRoofline(e *env) (float64, error) {
	const b, batches = 512, 32
	e.probe(b)
	d, err := pdm.NewFileDiskOpts(filepath.Join(e.dir, "roofline.disk"), b, pdm.FileDiskOptions{DirectIO: e.directIO})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	tracks := make([]int, pdm.MaxBatchTracks)
	bufs := make([][]pdm.Word, pdm.MaxBatchTracks)
	for i := range bufs {
		bufs[i] = make([]pdm.Word, b)
	}
	moved := 0
	start := time.Now()
	for time.Since(start) < probeDur {
		for _, transfer := range []func([]int, [][]pdm.Word) error{d.WriteTracks, d.ReadTracks} {
			for k := 0; k < batches; k++ {
				for i := range tracks {
					tracks[i] = k*len(tracks) + i
				}
				if err := transfer(tracks, bufs); err != nil {
					return 0, err
				}
				moved += len(tracks) * 8 * b
			}
		}
	}
	return float64(moved) / 1e6 / time.Since(start).Seconds(), nil
}

// probeLayout is the rate at which layout produces the message matrix's
// block requests, at the sort workloads' geometry.
func probeLayout(*env) (float64, error) {
	m, err := layout.NewMatrix(16, 8, 2, 0)
	if err != nil {
		return 0, err
	}
	reqs := make([]pdm.BlockReq, 0, m.V*m.BPM)
	n := 0
	start := time.Now()
	for time.Since(start) < probeDur {
		for phase := 0; phase < 2; phase++ {
			for vp := 0; vp < m.V; vp++ {
				reqs = m.AppendInboxReqs(reqs[:0], phase, vp)
				n += len(reqs)
				reqs = m.AppendOutboxReqs(reqs[:0], phase, vp)
				n += len(reqs)
			}
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// probeBalance is BalancedRouting's own rate: the permutation program
// lifted through balance.Wrap on the in-memory runtime, so no disk, codec
// or driver is in the way.
func probeBalance(*env) (float64, error) {
	const n, v = 1 << 18, 16
	prog := balance.Wrap[permute.Item](permute.New(n))
	inputs := balance.WrapInputs(cgm.Scatter(permuteItems(workload.Int64s(1, n), workload.Permutation(2, n)), v))
	items := 0
	start := time.Now()
	for time.Since(start) < probeDur {
		if _, err := cgm.Run(prog, v, inputs); err != nil {
			return 0, err
		}
		items += n
	}
	return float64(items) / time.Since(start).Seconds(), nil
}

// forward sends each processor's one item to its right neighbour for a
// fixed number of rounds: a program with nothing to compute and next to
// nothing to move, so its wall is the driver's own.
type forward struct{ rounds int }

func (forward) Init(vp *cgm.VP[int64], input []int64) { vp.State = append(vp.State[:0], input...) }

func (f forward) Round(vp *cgm.VP[int64], round int, inbox [][]int64) ([][]int64, bool) {
	for _, msg := range inbox {
		if len(msg) > 0 {
			vp.State = append(vp.State[:0], msg...)
		}
	}
	if round == f.rounds {
		return nil, true
	}
	out := make([][]int64, vp.V)
	out[(vp.ID+1)%vp.V] = vp.State
	return out, false
}

func (forward) Output(vp *cgm.VP[int64]) []int64 { return vp.State }
func (forward) MaxContextItems(int, int) int     { return 1 }

// probeNoopSuperstep is the driver's cost per compound superstep:
// core.RunPar of forward on memory disks, at the sort workloads' machine.
func probeNoopSuperstep(*env) (float64, error) {
	cfg := core.Config{V: 16, P: 2, D: 2, B: 512, MaxMsgItems: 1}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	inputs := cgm.Scatter(workload.Int64s(1, cfg.V), cfg.V)
	steps := 0
	start := time.Now()
	for time.Since(start) < probeDur {
		res, err := core.RunPar[int64](forward{rounds: 64}, wordcodec.I64{}, cfg, inputs)
		if err != nil {
			return 0, err
		}
		steps += res.Supersteps
	}
	return float64(time.Since(start).Microseconds()) / float64(steps), nil
}
