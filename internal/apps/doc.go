// Package apps groups the seven workloads of the paper's evaluation
// (§III-B), each in its own sub-package. The table mirrors the paper's
// Fig. 4 flow characterization — which stage transitions are
// asynchronous decides whether an application can profit from temporal
// sharing (overlap) or only from spatial sharing (partitioning):
//
//	app      flow (per Fig. 4)                              class
//	-------  ---------------------------------------------  ----------------
//	hbench   H2D → EXE → D2H, configurable intensity        microbenchmark
//	mm       panel H2D ⇢ tile EXE ⇢ tile D2H (async)        overlappable
//	cf       tile DAG: POTRF/TRSM/SYRK/GEMM with events     overlappable
//	nn       chunk H2D ⇢ EXE ⇢ D2H, host top-k merge        overlappable
//	kmeans   per-iter: centroids H2D → EXE → partial D2H →  non-overlappable
//	         host reduce (sync)
//	hotspot  per-iter: grid H2D → EXE → grid D2H (sync)     non-overlappable
//	srad     per-iter: reduce → host q0² → 2 stencils       non-overlappable
//	         (sync between kernels)
//
// Every application provides a functional model (real Go kernels over
// device buffers, validated against a host reference by Verify) and an
// analytic cost model driving the simulated timing; a Run method
// executes the non-streamed baseline with partitions = tasks = 1 and
// the streamed variant otherwise. hotspot additionally provides
// RunPipelined, the §VII future-work transformation to an overlappable
// flow. Run and RunPipelined take the caller's core.Rig and reshape it
// for the run rather than building a platform, so a sweep worker runs
// all its points on one; the run's buffers and events belong to the
// rig's context until its next Reset. hbench's one-shot measurements
// build their own context with hstreams.Init.
package apps
