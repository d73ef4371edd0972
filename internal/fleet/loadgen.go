package fleet

import (
	"context"

	"albireo/internal/inference"
	"albireo/internal/tensor"
)

// Sweep is the reusable load generator albireo-serve runs at startup:
// one seeded batch of the tiny CNN through the given backend. Whatever
// telemetry the backend records (device-activity counters, layer
// spans, guard checks) describes only what was served. Cancellation is
// honored between iterations: a sweep never leaves a layer
// half-recorded.
func Sweep(ctx context.Context, be inference.Backend, batch, size int, seed int64) error {
	net := inference.TinyCNN(3, size, seed)
	for i := 0; i < batch; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		in := tensor.RandomVolume(3, size, size, seed*1000+int64(i))
		net.Run(be, in)
	}
	return ctx.Err()
}

// Sweeps runs n consecutive sweeps with per-sweep seeds seed..seed+n-1,
// stopping early (with the context error) on cancellation.
func Sweeps(ctx context.Context, be inference.Backend, n, batch, size int, seed int64) error {
	for i := 0; i < n; i++ {
		if err := Sweep(ctx, be, batch, size, seed+int64(i)); err != nil {
			return err
		}
	}
	return nil
}
