package service_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// A wire session decides each check frame through its tenant's
// service. The suite that sheds batches through a held processor lives
// here, beside the HTTP suites, because HoldWorkers is reachable only
// from this package's tests.

// TestSessionBackpressureShed floods a wire session whose tenant has
// one processor and room for one waiting caller, both taken by
// in-process callers parked with HoldWorkers. Every batch of the first
// wave must be shed with a 429-coded error frame carrying
// ErrQueueFull's message, neither hanging nor dropped. Once the held
// callers finish, every batch of a second wave must be served. Each
// batch gets exactly one answer: the client fails its session on an
// answer to a correlation ID it does not await, which the second wave
// and the closing ping would report.
func TestSessionBackpressureShed(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{})
	def, err := reg.Load(tenant.DefaultTenant, service.TestSegments(),
		tenant.TenantConfig{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatalf("load default tenant: %v", err)
	}
	srv := wire.NewServer(reg, wire.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	c, err := wire.Dial(ln.Addr().String(), wire.ClientConfig{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	queries := make([]service.Query, 64)
	for i := range queries {
		queries[i] = service.Query{Op: service.OpAccess, Ring: 3, Segno: uint32(i % 3), Wordno: 1}
	}
	want, err := def.Submit(context.Background(), queries)
	if err != nil {
		t.Fatalf("in-process batch: %v", err)
	}

	svc := def.Service()
	hold := make(chan struct{})
	service.HoldWorkers(svc, hold, nil)
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(func() {
		release() // a Fatal must not leave the shutdown waiting on a parked caller
		c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		reg.Close()
	})
	held := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := def.Submit(context.Background(), queries)
			held <- err
		}()
	}
	// One caller parks on the processor and the other waits for it;
	// neither moves until hold closes.
	service.WaitFor(t, "a caller waiting behind the held processor", func() bool { return svc.QueueLen() == 1 })

	// flood pipelines callers×batches checks on the session and returns
	// each one's error.
	flood := func(callers, batches int) []error {
		errs := make([]error, callers*batches)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := make([]service.Decision, len(queries))
				for i := 0; i < batches; i++ {
					err := c.CheckInto(queries, dst)
					if err == nil && !reflect.DeepEqual(dst, want) {
						err = fmt.Errorf("decisions %+v, want %+v", dst, want)
					}
					errs[g*batches+i] = err
				}
			}(g)
		}
		wg.Wait()
		return errs
	}

	for i, err := range flood(4, 64) {
		var ef *wire.ErrFrame
		if !errors.As(err, &ef) || ef.Code != wire.CodeShed || ef.Msg != service.ErrQueueFull.Error() {
			t.Fatalf("first-wave batch %d = %v, want error frame %d %q",
				i, err, wire.CodeShed, service.ErrQueueFull.Error())
		}
	}
	release()
	for i := 0; i < 2; i++ {
		select {
		case err := <-held:
			if err != nil {
				t.Fatalf("held batch: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("held batches did not complete after release")
		}
	}
	for i, err := range flood(4, 16) {
		if err != nil {
			t.Fatalf("second-wave batch %d: %v", i, err)
		}
	}
	if _, err := c.Ping(); err != nil {
		t.Errorf("session after the flood: %v", err)
	}
}
