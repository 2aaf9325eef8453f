package model

import (
	"testing"

	"micstream/internal/device"
	"micstream/internal/pcie"
)

// clusterWorkload is a generic overlappable bag with staging traffic
// proportional to the split: every extra device stages 8 MiB per
// round through the host.
func clusterWorkload() ClusterWorkload {
	w := Uniform("bag", 64<<20, 64<<20, device.KernelCost{Name: "k", Flops: 4e10, Efficiency: 0.5})
	return Split(w, func(devices int) int64 { return int64(devices-1) * (8 << 20) })
}

func TestPredictClusterOneDeviceMatchesPredict(t *testing.T) {
	m := New(device.Xeon31SP(), pcie.DefaultConfig())
	cw := clusterWorkload()
	for _, pt := range [][2]int{{4, 16}, {8, 32}, {2, 8}} {
		single, err := m.Predict(cw.Workload, pt[0], pt[1])
		if err != nil {
			t.Fatal(err)
		}
		multi, err := m.PredictCluster(cw, 1, pt[0], pt[1])
		if err != nil {
			t.Fatal(err)
		}
		if single.Wall != multi.Wall {
			t.Errorf("P=%d T=%d: PredictCluster(1 dev) wall %v != Predict wall %v",
				pt[0], pt[1], multi.Wall, single.Wall)
		}
		if multi.Speedup != 1 || multi.StagingTime != 0 {
			t.Errorf("P=%d T=%d: one device should have speedup 1 and no staging, got %v / %v",
				pt[0], pt[1], multi.Speedup, multi.StagingTime)
		}
	}
}

func TestPredictClusterSubLinearScaling(t *testing.T) {
	// The Fig. 11 shape, predicted: two devices beat one but land
	// below the 2× projection because of the staged traffic.
	m := New(device.Xeon31SP(), pcie.DefaultConfig())
	cw := clusterWorkload()
	one, err := m.PredictCluster(cw, 1, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	two, err := m.PredictCluster(cw, 2, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if two.Wall >= one.Wall {
		t.Fatalf("2 devices (%v) should beat 1 (%v)", two.Wall, one.Wall)
	}
	if two.Speedup >= 2 {
		t.Fatalf("staged split should scale sub-linearly, got %.2fx", two.Speedup)
	}
	if two.Speedup <= 1 {
		t.Fatalf("2 devices should still win, got %.2fx", two.Speedup)
	}
	if two.StagingTime <= 0 {
		t.Fatal("2-device split should charge staging time")
	}

	// Free splits (no staging function) scale nearly linearly on
	// dedicated links: the only loss is the ceiling division.
	free := Split(cw.Workload, nil)
	ftwo, err := m.PredictCluster(free, 2, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ftwo.Speedup < 1.9 {
		t.Fatalf("free split should be near-linear, got %.2fx", ftwo.Speedup)
	}
	if ftwo.Speedup < two.Speedup {
		t.Fatal("staging should only ever slow the split down")
	}
}

func TestPredictClusterHostContention(t *testing.T) {
	// Capping the host complex at one link's bandwidth makes four
	// concurrent links contend 4×, stretching transfers.
	link := pcie.DefaultConfig()
	free := New(device.Xeon31SP(), link)
	capped := New(device.Xeon31SP(), link)
	capped.HostBandwidthBps = link.BandwidthBps
	cw := Split(clusterWorkload().Workload, nil)

	a, err := free.PredictCluster(cw, 4, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := capped.PredictCluster(cw, 4, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if b.LinkContention != 4 {
		t.Fatalf("contention = %v, want 4", b.LinkContention)
	}
	if b.Wall <= a.Wall {
		t.Fatalf("shared host complex (%v) should be slower than dedicated links (%v)", b.Wall, a.Wall)
	}
	// One device never contends with itself.
	c, err := capped.PredictCluster(cw, 1, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if c.LinkContention != 1 {
		t.Fatalf("single-device contention = %v, want 1", c.LinkContention)
	}
}

func TestPredictClusterErrors(t *testing.T) {
	m := New(device.Xeon31SP(), pcie.DefaultConfig())
	cw := clusterWorkload()
	if _, err := m.PredictCluster(cw, 0, 4, 16); err == nil {
		t.Error("zero devices should error")
	}
	if _, err := m.PredictCluster(cw, 2, 0, 16); err == nil {
		t.Error("zero partitions should error")
	}
	if _, err := m.PredictCluster(cw, 2, 4, 0); err == nil {
		t.Error("zero tiles should error")
	}
	if _, err := m.PredictCluster(ClusterWorkload{}, 2, 4, 16); err == nil {
		t.Error("workload without phases should error")
	}
}

// TestStagingOnlyPricesOneTransfer: the staging-only form the cluster
// prices residual staging with carries no compute, charges exactly the
// two-crossing staging time, and scales with calibration and the
// shared-host contention factor.
func TestStagingOnlyPricesOneTransfer(t *testing.T) {
	m := New(device.Xeon31SP(), pcie.DefaultConfig())
	cw := StagingOnly("staging", 4<<20)
	p, err := m.PredictCluster(cw, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.DeviceWall != 0 {
		t.Errorf("staging-only workload has device wall %v, want 0", p.DeviceWall)
	}
	if p.StagingTime <= 0 || p.Wall != p.StagingTime {
		t.Errorf("wall %v / staging %v: want wall == staging > 0", p.Wall, p.StagingTime)
	}
	if want := m.stagingTime(4<<20, 1); p.StagingTime != want {
		t.Errorf("staging time %v, want the two-crossing charge %v", p.StagingTime, want)
	}

	// Calibration stretches the price.
	cal := New(device.Xeon31SP(), pcie.DefaultConfig())
	cal.TransferScale = 2
	pc, err := cal.PredictCluster(cw, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pc.StagingTime <= p.StagingTime {
		t.Errorf("TransferScale=2 staging %v should exceed uncalibrated %v", pc.StagingTime, p.StagingTime)
	}

	// A capped host root complex stretches it further.
	capped := New(device.Xeon31SP(), pcie.DefaultConfig())
	capped.HostBandwidthBps = capped.Link.BandwidthBps // 2 links share 1 link's rate
	ph, err := capped.PredictCluster(cw, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ph.StagingTime <= p.StagingTime {
		t.Errorf("contended staging %v should exceed dedicated %v", ph.StagingTime, p.StagingTime)
	}

	// Zero bytes price zero.
	z, err := m.PredictCluster(StagingOnly("none", 0), 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if z.Wall != 0 {
		t.Errorf("zero-byte staging-only wall %v, want 0", z.Wall)
	}
}

// PredictStaging is the staging-only prediction's shortcut: bit-equal
// to PredictCluster's StagingTime across volumes, device counts,
// calibration and host contention.
func TestPredictStagingMatchesStagingOnly(t *testing.T) {
	plain := New(device.Xeon31SP(), pcie.DefaultConfig())
	cal := New(device.Xeon31SP(), pcie.DefaultConfig())
	cal.TransferScale = 1.37
	capped := New(device.Xeon31SP(), pcie.DefaultConfig())
	capped.HostBandwidthBps = 1.5 * capped.Link.BandwidthBps
	for _, m := range []*Model{plain, cal, capped} {
		for _, bytes := range []int64{0, 1, 4096, 3<<20 + 17, 1 << 30} {
			for _, devices := range []int{1, 2, 3, 4, 8} {
				p, err := m.PredictCluster(StagingOnly("staging", bytes), devices, 1, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got := m.PredictStaging(bytes, devices); got != p.StagingTime {
					t.Errorf("scale %g host %g: PredictStaging(%d, %d) = %v, PredictCluster staging %v",
						m.TransferScale, m.HostBandwidthBps, bytes, devices, got, p.StagingTime)
				}
			}
		}
	}
}
