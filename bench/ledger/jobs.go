package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"micstream"
)

// Every input the program sees is drawn here from the ledger's own
// generator, seeded by -seed and the round number, so a seed fixes the
// inputs and the program receives only the generated jobs.
//
// The generators allocate each kind of object — tasks, task pointers,
// transfer specs, regions — in one array per round and hand every job
// capped sub-slices of it. One allocation per object made the ledger's
// own allocator traffic most of setup_s (2.9–3.9 ms against 1.6–1.9 ms
// for a contended round), and the part of it that swung most with the
// host's load.

func newRNG(seed uint64, round int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(round)))
}

var tenants = []string{"t0", "t1", "t2", "t3"}

// The ingest cluster is micserve's default shape: 2 devices × 4
// partitions × 2 streams under predicted placement.
const ingestDevices = 2

func newIngestCluster(tel *micstream.Telemetry) (*micstream.Cluster, error) {
	opts := []micstream.ClusterOption{
		micstream.WithClusterDevices(ingestDevices),
		micstream.WithClusterPartitions(4),
		micstream.WithClusterStreams(2),
		micstream.WithPlacement(micstream.PredictedPlacement()),
	}
	if tel != nil {
		opts = append(opts, micstream.WithClusterTelemetry(tel))
	}
	return micstream.NewCluster(opts...)
}

// ingestJobs draws n jobs of micserve's ingestJob shape: four tenants,
// one kernel of 2e8–6e8 flops, and every fourth job pinned to an origin
// device with 4 MiB to stage when it runs elsewhere. Job i has ID i.
func ingestJobs(rng *rand.Rand, n int) []micstream.ClusterJob {
	jobs := make([]micstream.ClusterJob, n)
	tasks := make([]micstream.Task, n)
	ptrs := make([]*micstream.Task, n)
	for i := range jobs {
		tasks[i] = micstream.Task{
			Cost:       micstream.KernelCost{Name: "ingest", Flops: 2e8 + 1e8*float64(rng.IntN(5))},
			StreamHint: -1,
		}
		ptrs[i] = &tasks[i]
		jobs[i] = micstream.ClusterJob{
			ID:     i,
			Tenant: tenants[rng.IntN(len(tenants))],
			Tasks:  ptrs[i : i+1 : i+1],
			Origin: -1,
		}
		if i%4 == 0 {
			jobs[i].Origin = rng.IntN(ingestDevices)
			jobs[i].StagingBytes = 4 << 20
		}
	}
	return jobs
}

// The contended cluster: 4 devices × 4 partitions × 2 streams,
// affinity placement, stealing past 1 ms of backlog, one task per
// stream grant, and a 4 MiB LRU residency cache per device.
const (
	contendedDevices  = 4
	contendedCacheCap = 4 << 20
)

func newContendedCluster() (*micstream.Cluster, error) {
	return micstream.NewCluster(
		micstream.WithClusterDevices(contendedDevices),
		micstream.WithClusterPartitions(4),
		micstream.WithClusterStreams(2),
		micstream.WithPlacement(micstream.AffinityPlacement()),
		micstream.WithClusterStealing(time.Millisecond),
		micstream.WithClusterSlicing(1),
		micstream.WithResidency(contendedCacheCap),
	)
}

// Shape of the contended mix. Eight datasets of eight 256 KiB tiles
// (16 MiB in all) against 4 MiB of cache per device keep eviction busy;
// a reader covers four consecutive tiles, so readers of one dataset
// share some tiles but not all.
const (
	contendedTiles   = 4 // H2D+kernel+D2H tasks per job
	contendedTileB   = 256 << 10
	contendedSets    = 8
	contendedSetSize = 8                      // tiles per dataset
	contendedGap     = 150 * time.Microsecond // mean arrival spacing: 20,000 jobs over 3 s
	contendedBurst   = 40                     // mean jobs per arrival burst
	// contendedFlops is one task's geometric-mean kernel work, sized so
	// the bursts overload the cluster for a while and then drain.
	contendedFlops = 2.5e7
)

var datasets = func() []string {
	out := make([]string, contendedSets)
	for i := range out {
		out[i] = fmt.Sprintf("ds%d", i)
	}
	return out
}()

// contendedJobs draws n jobs for the contended cluster c, allocating
// their tile buffers on its platform: four-tile jobs with 4× size
// spread, bursty arrivals over n × contendedGap of virtual time, 70%
// reading a region of one of the datasets (homed on device 0 or 1),
// and a fifth of those writing the region back.
func contendedJobs(rng *rand.Rand, c *micstream.Cluster, n int) []micstream.ClusterJob {
	p := micstream.ClusterPlatform(c)
	in := micstream.AllocVirtual(p, "ledger/in", contendedTileB, 1)
	out := micstream.AllocVirtual(p, "ledger/out", contendedTileB, 1)
	arrivals := burstyArrivals(rng, n)
	jobs := make([]micstream.ClusterJob, n)
	tasks := make([]micstream.Task, n*contendedTiles)
	ptrs := make([]*micstream.Task, n*contendedTiles)
	xfers := make([]micstream.TransferSpec, 2*n*contendedTiles)
	regions := make([]micstream.Region, n)
	for i := range jobs {
		flops := contendedFlops * math.Pow(4, 2*rng.Float64()-1)
		for k := 0; k < contendedTiles; k++ {
			x := i*contendedTiles + k
			xfers[2*x] = micstream.Xfer(in, 0, contendedTileB)
			xfers[2*x+1] = micstream.Xfer(out, 0, contendedTileB)
			tasks[x] = micstream.Task{
				ID:         k,
				H2D:        xfers[2*x : 2*x+1 : 2*x+1],
				Cost:       micstream.KernelCost{Name: "tile", Flops: flops, Bytes: 2 * contendedTileB},
				D2H:        xfers[2*x+1 : 2*x+2 : 2*x+2],
				StreamHint: -1,
			}
			ptrs[x] = &tasks[x]
		}
		first := i * contendedTiles
		j := micstream.ClusterJob{
			ID:      i,
			Tenant:  tenants[rng.IntN(len(tenants))],
			Arrival: arrivals[i],
			Tasks:   ptrs[first : first+contendedTiles : first+contendedTiles],
			Origin:  -1,
		}
		if rng.Float64() < 0.7 {
			ds := rng.IntN(contendedSets)
			j.Origin = ds % 2
			regions[i] = micstream.Region{
				Dataset:   datasets[ds],
				First:     rng.IntN(contendedSetSize - contendedTiles + 1),
				Tiles:     contendedTiles,
				TileBytes: contendedTileB,
			}
			j.Reads = regions[i : i+1 : i+1]
			if rng.Float64() < 0.2 {
				j.Writes = j.Reads
			}
		}
		jobs[i] = j
	}
	return jobs
}

// burstyArrivals scatters n arrivals into bursts: burst starts uniform
// over n × contendedGap, each arrival joining a random burst with an
// exponential offset of mean 200 µs. Sorted ascending.
func burstyArrivals(rng *rand.Rand, n int) []micstream.Time {
	window := int64(n) * int64(contendedGap)
	starts := make([]int64, n/contendedBurst+1)
	for b := range starts {
		starts[b] = rng.Int64N(window)
	}
	out := make([]micstream.Time, n)
	for i := range out {
		off := rng.ExpFloat64() * float64(200*time.Microsecond)
		out[i] = micstream.Time(starts[rng.IntN(len(starts))] + int64(off))
	}
	slices.Sort(out)
	return out
}
