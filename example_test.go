package micstream_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"

	"micstream"
)

// The simplest offload: ship data, run a kernel, ship it back, on the
// simulated Xeon Phi 31SP. Virtual time is deterministic, so the
// output is stable.
func ExampleNewPlatform() {
	p, err := micstream.NewPlatform(micstream.WithFunctionalKernels())
	if err != nil {
		panic(err)
	}
	host := []float64{1, 2, 3, 4}
	buf := micstream.Alloc1D(p, "v", host)

	s := p.Stream(0)
	if _, err := s.EnqueueH2D(buf, 0, 4, 0); err != nil {
		panic(err)
	}
	s.EnqueueKernel(micstream.KernelCost{Name: "inc", Flops: 4}, 0,
		func(k *micstream.KernelCtx) {
			dev := micstream.DeviceSlice[float64](buf, k.DeviceIndex)
			for i := range dev {
				dev[i]++
			}
		})
	if _, err := s.EnqueueD2H(buf, 0, 4, 0); err != nil {
		panic(err)
	}
	p.Barrier()

	fmt.Println(host)
	// Output: [2 3 4 5]
}

// Pipelining tiles through multiple streams: four tasks on two
// partitions overlap their transfers with neighbours' kernels.
func ExampleRunTasks() {
	p, err := micstream.NewPlatform(micstream.WithPartitions(2))
	if err != nil {
		panic(err)
	}
	buf := micstream.AllocVirtual(p, "data", 4<<20, 4)
	var tasks []*micstream.Task
	for i := 0; i < 4; i++ {
		off := i * buf.Len() / 4
		tasks = append(tasks, &micstream.Task{
			ID:         i,
			H2D:        []micstream.TransferSpec{micstream.Xfer(buf, off, buf.Len()/4)},
			Cost:       micstream.KernelCost{Name: "work", Flops: 5e9},
			D2H:        []micstream.TransferSpec{micstream.Xfer(buf, off, buf.Len()/4)},
			StreamHint: -1,
		})
	}
	res, err := micstream.RunTasks(p, tasks, 4*5e9)
	if err != nil {
		panic(err)
	}
	fmt.Printf("overlap achieved: %v\n", res.OverlapFraction > 0.3)
	// Output: overlap achieved: true
}

// The paper's §V-C pruning: candidate partition counts are the
// divisors of the 31SP's 56 usable cores.
func ExampleCandidatePartitions() {
	fmt.Println(micstream.CandidatePartitions(micstream.Xeon31SP()))
	// Output: [1 2 4 7 8 14 28 56]
}

// Route device-resident jobs across two MICs with the model-driven
// placement policy: the first job runs on its home device for free,
// and balancing the other two across the cluster pays the staged
// transfer both times — predicted placement charges that price into
// its scores before committing. Virtual time is deterministic, so the
// output is stable.
func ExampleNewCluster() {
	c, err := micstream.NewCluster(
		micstream.WithClusterDevices(2),
		micstream.WithClusterPartitions(1),
	)
	if err != nil {
		panic(err)
	}
	p := micstream.ClusterPlatform(c)
	buf := micstream.AllocVirtual(p, "tiles", 3<<20, 1)
	job := func(id, origin int) micstream.ClusterJob {
		return micstream.ClusterJob{
			ID: id,
			Tasks: []*micstream.Task{{
				ID:         0,
				H2D:        []micstream.TransferSpec{micstream.Xfer(buf, id<<20, 1<<20)},
				Cost:       micstream.KernelCost{Name: "work", Flops: 5e9},
				D2H:        []micstream.TransferSpec{micstream.Xfer(buf, id<<20, 1<<20)},
				StreamHint: -1,
			}},
			Origin:       origin,
			StagingBytes: 1 << 20,
		}
	}
	r, err := c.Run([]micstream.ClusterJob{job(0, 0), job(1, 0), job(2, 1)})
	if err != nil {
		panic(err)
	}
	for _, o := range r.Jobs {
		fmt.Printf("job %d -> device %d (staged %v)\n", o.ID, o.Device, o.Staged)
	}
	fmt.Printf("placement %s, %d staged, makespan %v\n", r.Placement, r.StagedJobs, r.Makespan)
	// Output:
	// job 0 -> device 0 (staged false)
	// job 1 -> device 1 (staged true)
	// job 2 -> device 1 (staged false)
	// placement predicted, 1 staged, makespan 11.218ms
}

// serviceJob builds job id as a pure function of the id, so every
// interleaving of concurrent submitters offers the same job set. Every
// fourth job stages its input from a device.
func serviceJob(id int) micstream.ClusterJob {
	j := micstream.ClusterJob{
		ID:     id,
		Tenant: fmt.Sprintf("t%d", id%3),
		Tasks: []*micstream.Task{{
			Cost:       micstream.KernelCost{Name: "ingest", Flops: 2e8 + 1e8*float64(id%5)},
			StreamHint: -1,
		}},
		Origin: -1,
	}
	if id%4 == 0 {
		j.Origin = (id / 4) % 2
		j.StagingBytes = 4 << 20
	}
	return j
}

func serviceCluster(opts ...micstream.ClusterOption) *micstream.Cluster {
	c, err := micstream.NewCluster(append([]micstream.ClusterOption{
		micstream.WithClusterDevices(2),
		micstream.WithClusterPartitions(2),
		micstream.WithClusterStreams(2),
	}, opts...)...)
	if err != nil {
		panic(err)
	}
	return c
}

// Service mode: eight goroutines submit jobs concurrently while a
// subscriber collects the outcomes. After a graceful drain, replaying
// the recorded epoch batches single-threaded on a fresh cluster
// reproduces the outcome stream exactly. Wall-clock time decides only
// which batch a job lands in (DESIGN.md §15), so the output prints
// counts and equalities, never the batches themselves.
func ExampleServe() {
	const submitters, perG = 8, 16
	srv, err := micstream.Serve(serviceCluster())
	if err != nil {
		panic(err)
	}
	sub := srv.Subscribe()
	var wg sync.WaitGroup
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				if _, err := srv.Submit(serviceJob(g*perG + i)); err != nil {
					panic(err)
				}
			}
		}()
	}
	wg.Wait()
	live, err := micstream.DrainServer(srv, 30*time.Second)
	if err != nil {
		panic(err)
	}
	var streamed, replayed []micstream.ClusterOutcome
	for o, ok := sub.Next(); ok; o, ok = sub.Next() {
		streamed = append(streamed, o)
	}
	batched := 0
	for _, b := range srv.Batches() {
		batched += len(b.Jobs)
	}
	replay, err := micstream.ReplayBatches(serviceCluster(), srv.Batches(), func(o micstream.ClusterOutcome) {
		replayed = append(replayed, o)
	})
	if err != nil {
		panic(err)
	}
	_, err = srv.Submit(serviceJob(0))

	st := srv.Stats()
	fmt.Printf("submitted %d, completed %d, streamed %d, in recorded batches %d\n",
		st.Submitted, st.Completed, len(streamed), batched)
	fmt.Println("replayed outcome stream identical:", reflect.DeepEqual(streamed, replayed))
	fmt.Println("replayed makespan identical:", replay.Makespan == live.Makespan)
	fmt.Println("submit after drain refused:", errors.Is(err, micstream.ErrServerStopped))
	// Output:
	// submitted 128, completed 128, streamed 128, in recorded batches 128
	// replayed outcome stream identical: true
	// replayed makespan identical: true
	// submit after drain refused: true
}

// The embedded session drives service mode epoch by epoch. State stays
// warm across epochs: round-robin placement sends one reader of a
// shared panel off its origin device each epoch, so epoch 1 stages the
// panel cold and epoch 2's reader hits the copy epoch 1 left resident.
func ExampleNewClusterSession() {
	panel := micstream.Region{Dataset: "panel", Tiles: 8, TileBytes: 1 << 20}
	reader := func(id int) micstream.ClusterJob {
		j := serviceJob(id)
		j.Origin = 0
		j.Reads = []micstream.Region{panel}
		j.StagingBytes = panel.Bytes()
		return j
	}
	rr, err := micstream.PlaceBy("round-robin")
	if err != nil {
		panic(err)
	}
	sess, err := micstream.NewClusterSession(
		serviceCluster(micstream.WithResidency(0), micstream.WithPlacement(rr)), nil)
	if err != nil {
		panic(err)
	}
	defer sess.Close()
	for epoch := 1; epoch <= 2; epoch++ {
		base, err := sess.Submit([]micstream.ClusterJob{reader(100 + epoch), reader(200 + epoch)})
		if err != nil {
			panic(err)
		}
		if _, err := sess.RunEpoch(); err != nil {
			panic(err)
		}
		var miss, hit int64
		for i := range 2 {
			o, ok := sess.Outcome(base + i)
			if !ok {
				panic("outcome not terminal after its epoch")
			}
			miss += o.MissBytes
			hit += o.HitBytes
		}
		fmt.Printf("epoch %d: %d MiB cold-missed, %d MiB hit resident, virtual now %v\n",
			epoch, miss>>20, hit>>20, sess.Now())
	}
	// Output:
	// epoch 1: 8 MiB cold-missed, 0 MiB hit resident, virtual now 3.228ms
	// epoch 2: 0 MiB cold-missed, 8 MiB hit resident, virtual now 4.067ms
}
