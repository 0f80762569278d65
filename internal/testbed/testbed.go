// Package testbed assembles the full end-to-end environment of the demo's
// Fig. 2: two MOCN-sharing eNBs, a transport network of mmWave/µWave
// wireless hops around programmable switches, and two OpenStack-style data
// centers (mobile edge and cloud core), all wired to the three domain
// controllers the orchestrator sits on. Both data centers place VMs first
// fit in host-name order, the one placement their admission dry run and
// their install share.
//
// New builds the controllers last, once the topology is complete, and they
// take its cell, eNB-port and data-center lists then: nothing may add a
// cell, node, link or data center to a built testbed.
//
// Every experiment, example and benchmark starts from this builder so that
// numbers are comparable across the repository.
package testbed

import (
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/ctrl"
	"repro/internal/mec"
	"repro/internal/ran"
	"repro/internal/transport"
)

// Config scales the testbed. The zero value is adjusted to Default().
type Config struct {
	// ENBs is the number of radio cells (the demo had 2).
	ENBs int
	// ENBBandwidth sets each cell's PRB grid.
	ENBBandwidth ran.Bandwidth
	// ENBCarriers aggregates this many component carriers of ENBBandwidth
	// per cell (default 1). Scale-out experiments and the epoch benchmarks
	// raise it — together with MaxPLMNs and the link capacities — so
	// thousands of concurrent slices fit the radio grid.
	ENBCarriers int
	// MaxPLMNs lifts each cell's MOCN broadcast-list bound (default 6, the
	// 3GPP SIB1 limit). Scale-out experiments and the concurrent-admission
	// benchmarks raise it together with core.Config.PLMNLimit so the radio
	// capacity, not the broadcast list, is what binds.
	MaxPLMNs int
	// MeanCQI / CQIStdDev set the radio channel model.
	MeanCQI   float64
	CQIStdDev float64
	// EdgeHosts / CoreHosts are compute nodes per DC.
	EdgeHosts, CoreHosts int
	// EdgeHostVCPUs / CoreHostVCPUs size each host.
	EdgeHostVCPUs, CoreHostVCPUs float64
	// MmWaveMbps / MicroWaveMbps / WiredMbps are link capacities.
	MmWaveMbps, MicroWaveMbps, WiredMbps float64
	// CoreDelayMs is the extra wired delay to the core DC, the quantity
	// that forces latency-critical slices to the edge.
	CoreDelayMs float64
	// RedundantTransport adds a backup switch (sw2) with higher-delay
	// µWave links from every eNB and wired links to both DCs — the
	// "different transport network topology configurations" the demo's
	// programmable switch enables. Primary paths are unchanged (backup
	// links are strictly worse in delay); restoration after a link
	// failure becomes possible.
	RedundantTransport bool
	// MECHosts enables the optional fourth orchestration domain: an edge
	// MEC compute pool of this many hosts, registered behind the same
	// generic Domain surface as the radio/transport/cloud controllers.
	// 0 (the default) leaves the demo's original three-domain setup
	// untouched.
	MECHosts int
	// MECHostCPUs sizes each MEC host (default 8 when MECHosts > 0).
	MECHostCPUs float64
	// MECProcDelayMs is the per-app processing-latency contribution
	// charged against the slice budget (default 0.2 ms).
	MECProcDelayMs float64
}

// Default returns the demo-scale testbed configuration.
func Default() Config {
	return Config{
		ENBs:          2,
		ENBBandwidth:  ran.BW20MHz,
		MeanCQI:       12,
		CQIStdDev:     0,
		EdgeHosts:     2,
		CoreHosts:     4,
		EdgeHostVCPUs: 16,
		CoreHostVCPUs: 32,
		MmWaveMbps:    1000,
		MicroWaveMbps: 400,
		WiredMbps:     10000,
		CoreDelayMs:   6.0,
	}
}

// normalize fills zero fields from Default.
func (c Config) normalize() Config {
	d := Default()
	if c.ENBs <= 0 {
		c.ENBs = d.ENBs
	}
	if c.ENBBandwidth.PRBs() == 0 {
		c.ENBBandwidth = d.ENBBandwidth
	}
	if c.MeanCQI <= 0 {
		c.MeanCQI = d.MeanCQI
	}
	if c.EdgeHosts <= 0 {
		c.EdgeHosts = d.EdgeHosts
	}
	if c.CoreHosts <= 0 {
		c.CoreHosts = d.CoreHosts
	}
	if c.EdgeHostVCPUs <= 0 {
		c.EdgeHostVCPUs = d.EdgeHostVCPUs
	}
	if c.CoreHostVCPUs <= 0 {
		c.CoreHostVCPUs = d.CoreHostVCPUs
	}
	if c.MmWaveMbps <= 0 {
		c.MmWaveMbps = d.MmWaveMbps
	}
	if c.MicroWaveMbps <= 0 {
		c.MicroWaveMbps = d.MicroWaveMbps
	}
	if c.WiredMbps <= 0 {
		c.WiredMbps = d.WiredMbps
	}
	if c.CoreDelayMs <= 0 {
		c.CoreDelayMs = d.CoreDelayMs
	}
	if c.MECHosts > 0 {
		if c.MECHostCPUs <= 0 {
			c.MECHostCPUs = 8
		}
		if c.MECProcDelayMs <= 0 {
			c.MECProcDelayMs = 0.2
		}
	}
	return c
}

// Names of the well-known nodes.
const (
	EdgeDC       = "edge"
	CoreDC       = "core"
	Switch       = "sw1"
	BackupSwitch = "sw2"
)

// Testbed is the assembled environment.
type Testbed struct {
	Config    Config
	RAN       *ran.Network
	Transport *transport.Network
	Region    *cloud.Region
	// MEC is the optional edge compute pool (nil unless Config.MECHosts
	// enables the fourth domain).
	MEC  *mec.Pool
	Ctrl ctrl.Set
}

// ENBName returns the i-th eNB name (0-based).
func ENBName(i int) string { return fmt.Sprintf("enb-%d", i+1) }

// New builds the testbed. rng seeds the radio channel model; nil gives a
// deterministic mean-CQI channel.
func New(cfg Config, rng *rand.Rand) (*Testbed, error) {
	cfg = cfg.normalize()

	// Radio domain: N MOCN cells.
	ranNet := ran.NewNetwork()
	for i := 0; i < cfg.ENBs; i++ {
		e, err := ran.NewENB(ran.Config{
			Name:      ENBName(i),
			Bandwidth: cfg.ENBBandwidth,
			Carriers:  cfg.ENBCarriers,
			MaxPLMNs:  cfg.MaxPLMNs,
			MeanCQI:   cfg.MeanCQI,
			CQIStdDev: cfg.CQIStdDev,
		}, rng)
		if err != nil {
			return nil, err
		}
		if err := ranNet.Add(e); err != nil {
			return nil, err
		}
	}

	// Transport domain (Fig. 2): each eNB reaches the programmable switch
	// over a wireless hop — odd cells on mmWave, even cells on µWave —
	// and the switch connects to both data centers over wired links. The
	// core DC sits several ms further away.
	tn := transport.NewNetwork()
	if err := tn.AddNode(Switch, transport.KindSwitch); err != nil {
		return nil, err
	}
	if err := tn.AddNode(EdgeDC, transport.KindDC); err != nil {
		return nil, err
	}
	if err := tn.AddNode(CoreDC, transport.KindDC); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.ENBs; i++ {
		name := ENBName(i)
		if err := tn.AddNode(name, transport.KindENB); err != nil {
			return nil, err
		}
		if i%2 == 0 {
			if err := tn.AddBiLink(name, Switch, transport.MmWave, cfg.MmWaveMbps, 0.5); err != nil {
				return nil, err
			}
		} else {
			if err := tn.AddBiLink(name, Switch, transport.MicroWave, cfg.MicroWaveMbps, 1.2); err != nil {
				return nil, err
			}
		}
	}
	if err := tn.AddBiLink(Switch, EdgeDC, transport.Wired, cfg.WiredMbps, 0.3); err != nil {
		return nil, err
	}
	if err := tn.AddBiLink(Switch, CoreDC, transport.Wired, cfg.WiredMbps, cfg.CoreDelayMs); err != nil {
		return nil, err
	}
	if cfg.RedundantTransport {
		if err := tn.AddNode(BackupSwitch, transport.KindSwitch); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.ENBs; i++ {
			// Backup wireless hops are strictly slower than the primary,
			// so shortest-path routing never prefers them while sw1 is up.
			if err := tn.AddBiLink(ENBName(i), BackupSwitch, transport.MicroWave, cfg.MicroWaveMbps, 2.5); err != nil {
				return nil, err
			}
		}
		if err := tn.AddBiLink(BackupSwitch, EdgeDC, transport.Wired, cfg.WiredMbps, 1.0); err != nil {
			return nil, err
		}
		if err := tn.AddBiLink(BackupSwitch, CoreDC, transport.Wired, cfg.WiredMbps, cfg.CoreDelayMs+1); err != nil {
			return nil, err
		}
	}

	// Cloud domain: edge (small) + core (large) data centers.
	region := cloud.NewRegion()
	edge := cloud.NewDataCenter(EdgeDC, "edge")
	for i := 0; i < cfg.EdgeHosts; i++ {
		if err := edge.AddHost(fmt.Sprintf("edge-h%d", i+1), cfg.EdgeHostVCPUs, int(cfg.EdgeHostVCPUs)*4096, 500); err != nil {
			return nil, err
		}
	}
	core := cloud.NewDataCenter(CoreDC, "core")
	for i := 0; i < cfg.CoreHosts; i++ {
		if err := core.AddHost(fmt.Sprintf("core-h%d", i+1), cfg.CoreHostVCPUs, int(cfg.CoreHostVCPUs)*4096, 2000); err != nil {
			return nil, err
		}
	}
	if err := region.Add(edge); err != nil {
		return nil, err
	}
	if err := region.Add(core); err != nil {
		return nil, err
	}

	tb := &Testbed{
		Config:    cfg,
		RAN:       ranNet,
		Transport: tn,
		Region:    region,
	}
	tb.Ctrl = ctrl.Set{
		RAN:       ctrl.NewRANController(ranNet),
		Transport: ctrl.NewTransportController(tn),
		Cloud:     ctrl.NewCloudController(region),
	}

	// Optional fourth domain: the edge MEC compute pool, registered behind
	// the same generic Domain surface — the orchestrator core picks it up
	// from the Set without any MEC-specific wiring.
	if cfg.MECHosts > 0 {
		pool := mec.NewPool(cfg.MECProcDelayMs)
		for i := 0; i < cfg.MECHosts; i++ {
			if err := pool.AddHost(fmt.Sprintf("mec-h%d", i+1), cfg.MECHostCPUs); err != nil {
				return nil, err
			}
		}
		tb.MEC = pool
		tb.Ctrl.Extra = append(tb.Ctrl.Extra, ctrl.NewMECController(pool))
	}
	return tb, nil
}

// MustNew is New panicking on error, for tests and examples where the
// default config is known-good.
func MustNew(cfg Config, rng *rand.Rand) *Testbed {
	tb, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return tb
}

// RadioCapacityMbps returns the total mean-CQI radio capacity — the
// denominator of the multiplexing-gain metric.
func (tb *Testbed) RadioCapacityMbps() float64 {
	return tb.Ctrl.RAN.CapacityMbps()
}
