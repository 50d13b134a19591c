package main

// The in-process stack: the composition cmd/cryptonn-authority and
// cmd/cryptonn-server perform, with every network hop over loopback.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/group"
	"cryptonn/internal/securemat"
	"cryptonn/internal/service"
	"cryptonn/internal/wire"
)

// serverKeyPool is cryptonn-server's default -pool: the number of
// authority connections its key-service pool holds.
const serverKeyPool = 4

// stack is one authority, its TCP front end, and a training service
// wired to it through a key-service pool, plus a client that fetched its
// public keys from the authority over its own connection.
type stack struct {
	auth     *authority.Authority
	authSrv  *wire.AuthorityServer
	authAddr string
	pool     *wire.KeyServicePool
	srv      *service.Server
	client   *core.Client
	clientKS *wire.RemoteKeyService

	ctx    context.Context
	cancel context.CancelFunc
	// bg holds the exit errors of the stack's serving goroutines; Close
	// waits for each.
	bg []chan error
}

// newStack builds the stack over a freshly parsed group (so no table
// built by an earlier stack in this process is reused) and fetches the
// client's public keys for the given FEIP dimensions. With a tracer, the
// service talks to the pool through the tracer's key decorator.
func newStack(bits int, cfg service.Config, etas []int, tr *tracer) (*stack, error) {
	params, err := group.Embedded(bits)
	if err != nil {
		return nil, err
	}
	auth, err := authority.New(params, authority.AllowAll())
	if err != nil {
		return nil, err
	}
	authSrv, err := wire.NewAuthorityServer(auth, nil)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{auth: auth, authSrv: authSrv, authAddr: l.Addr().String(), ctx: ctx, cancel: cancel}
	s.goServe(func() error { return authSrv.Serve(ctx, l) })

	if s.pool, err = wire.NewKeyServicePool(s.authAddr, serverKeyPool); err != nil {
		return nil, s.fail(err)
	}
	var keys securemat.KeyService = s.pool
	if tr != nil {
		keys = traceKeys(s.pool, &tr.keys)
	}
	cfg.Parallelism = runtime.NumCPU()
	if s.srv, err = service.New(keys, cfg); err != nil {
		return nil, s.fail(err)
	}

	if s.clientKS, err = wire.DialKeyService(s.authAddr); err != nil {
		return nil, s.fail(err)
	}
	ceng, err := securemat.NewEngine(s.clientKS, securemat.EngineOptions{Parallelism: runtime.NumCPU()})
	if err != nil {
		return nil, s.fail(err)
	}
	for _, eta := range etas {
		mpk, err := ceng.FEIPPublic(eta)
		if err != nil {
			return nil, s.fail(fmt.Errorf("fetching FEIP public key (η=%d): %w", eta, err))
		}
		mpk.Precompute()
	}
	if _, err := ceng.FEBOPublic(); err != nil {
		return nil, s.fail(fmt.Errorf("fetching FEBO public key: %w", err))
	}
	if s.client, err = core.NewClient(ceng, nil, nil); err != nil {
		return nil, s.fail(err)
	}
	return s, nil
}

// goServe runs fn until the stack closes, keeping its exit error.
func (s *stack) goServe(fn func() error) {
	done := make(chan error, 1)
	s.bg = append(s.bg, done)
	go func() { done <- fn() }()
}

// fail closes a partly built stack and returns err.
func (s *stack) fail(err error) error {
	if cerr := s.Close(); cerr != nil {
		return fmt.Errorf("%w (closing: %v)", err, cerr)
	}
	return err
}

// Close stops every serving goroutine, waits for each, and closes the
// connections the stack dialed.
func (s *stack) Close() error {
	s.cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.clientKS != nil {
		keep(s.clientKS.Close())
	}
	if s.pool != nil {
		keep(s.pool.Close())
	}
	keep(s.authSrv.Close())
	for _, done := range s.bg {
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, net.ErrClosed) && !errors.Is(err, context.Canceled) {
				keep(err)
			}
		case <-time.After(30 * time.Second):
			keep(errors.New("a serving goroutine did not stop"))
		}
	}
	return first
}

// authorityCounts is what the authority served over a stack's lifetime:
// requests through its TCP front end and keys issued.
type authorityCounts struct {
	Served, IPKeys, IPKeyScalars, BOKeys uint64
}

func (s *stack) authorityCounts() authorityCounts {
	as := s.auth.Stats()
	return authorityCounts{s.authSrv.Stats().Served, as.IPKeys, as.IPKeyScalars, as.BOKeys}
}
