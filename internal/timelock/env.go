package timelock

import (
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/netsim"
	"repro/internal/sig"
	"repro/internal/sim"
	"repro/internal/trace"
)

// env bundles everything one protocol run needs. Both the process-based and
// the ANTA-based engines execute against the same env, which is what makes
// their outcomes directly comparable.
type env struct {
	scn    core.Scenario
	params Params
	eng    *sim.Engine
	net    *netsim.Network
	tr     *trace.Trace
	book   *ledger.Book
	kr     *sig.Keyring
	clocks map[string]*clock.Clock

	wealthBefore map[string]int64
}

// defaultMaxEvents caps a run's event count as a runaway guard.
const defaultMaxEvents = 2_000_000

// setupEnv validates the scenario and instantiates engine, network, keyring,
// ledgers and per-participant drifting clocks.
func setupEnv(s core.Scenario, params Params) (*env, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(s.Seed)
	eng.SetMetrics(sim.MetricsFrom(s.Metrics))
	tr := trace.New()
	if s.MuteTrace {
		tr.Mute()
	}
	net := netsim.New(eng, s.Network, tr)
	net.SetMetrics(netsim.MetricsFrom(s.Metrics))
	ledgerMetrics := ledger.MetricsFrom(s.Metrics, "protocol")
	topo := s.Topology

	kr := sig.NewKeyringWith(s.SigOptions(), s.DerivedKeySeed(), topo.Participants())

	book := ledger.NewBook()
	for i := 0; i < topo.N; i++ {
		led := ledger.New(core.EscrowID(i))
		led.SetMetrics(ledgerMetrics)
		// Escrow e_i hosts accounts for itself and for its two customers
		// c_i and c_{i+1}; the customers receive their initial endowment.
		if err := led.CreateAccount(core.EscrowID(i)); err != nil {
			return nil, err
		}
		for _, cust := range []string{topo.UpstreamCustomer(i), topo.DownstreamCustomer(i)} {
			if err := led.CreateAccount(cust); err != nil {
				return nil, err
			}
			if err := led.Mint(0, cust, s.InitialBalance); err != nil {
				return nil, err
			}
		}
		book.Add(led)
	}

	clocks := make(map[string]*clock.Clock, len(topo.Participants()))
	rng := eng.Rand()
	for _, id := range topo.Participants() {
		rho := clock.Drift(0)
		var offset sim.Time
		if s.Timing.Clock.MaxRho > 0 {
			rho = clock.Drift((2*rng.Float64() - 1) * float64(s.Timing.Clock.MaxRho))
		}
		if s.Timing.Clock.MaxOffset > 0 {
			offset = sim.Time(rng.Int63n(int64(2*s.Timing.Clock.MaxOffset+1))) - s.Timing.Clock.MaxOffset
		}
		clocks[id] = clock.New(eng, rho, offset)
	}

	return &env{
		scn:          s,
		params:       params,
		eng:          eng,
		net:          net,
		tr:           tr,
		book:         book,
		kr:           kr,
		clocks:       clocks,
		wealthBefore: book.SnapshotWealth(),
	}, nil
}

// procDelay draws an honest participant's processing delay for one action:
// a uniformly random fraction of the processing bound.
func (e *env) procDelay() sim.Time {
	maxP := e.scn.Timing.MaxProcessing
	if maxP <= 0 {
		return 0
	}
	return sim.Time(e.eng.Rand().Int63n(int64(maxP + 1)))
}

// actionDelay is procDelay plus any Byzantine action delay for id.
func (e *env) actionDelay(id string) sim.Time {
	return e.procDelay() + e.scn.FaultOf(id).DelayActions
}

// lockID returns the deterministic escrow-lock identifier used for the
// payment on escrow e_i.
func (e *env) lockID(i int) string {
	return e.scn.Spec.PaymentID + "/" + core.EscrowID(i)
}

// maxEvents returns the run's event cap.
func (e *env) maxEvents() uint64 {
	if e.scn.MaxEvents > 0 {
		return e.scn.MaxEvents
	}
	return defaultMaxEvents
}

// outcomeSource is what the env needs from a per-customer engine object to
// build a core.CustomerOutcome. Both engines implement it.
type outcomeSource interface {
	customerID() string
	terminated() (bool, sim.Time)
	startedAt() sim.Time
	holdsChi() bool
	issuedChi() bool
	paidOut() int64
	received() int64
}

// collect builds the RunResult common to both engines.
func (e *env) collect(protocolName string, sources map[string]outcomeSource, eventsFired uint64) *core.RunResult {
	topo := e.scn.Topology
	res := &core.RunResult{
		Protocol:    protocolName,
		Scenario:    e.scn,
		Trace:       e.tr,
		Book:        e.book,
		Customers:   map[string]core.CustomerOutcome{},
		Escrows:     map[string]core.EscrowOutcome{},
		NetStats:    e.net.Stats(),
		EventsFired: eventsFired,
	}
	wealthAfter := e.book.SnapshotWealth()
	allTerm := true
	var lastTerm sim.Time
	for _, id := range topo.Customers() {
		out := core.CustomerOutcome{
			ID:           id,
			Role:         topo.RoleOf(id),
			WealthBefore: e.wealthBefore[id],
			WealthAfter:  wealthAfter[id],
		}
		if src, ok := sources[id]; ok {
			out.Terminated, out.TerminatedAt = src.terminated()
			out.StartedAt = src.startedAt()
			out.HoldsChi = src.holdsChi()
			out.IssuedChi = src.issuedChi()
			out.PaidOut = src.paidOut()
			out.Received = src.received()
		}
		if out.Terminated && out.TerminatedAt > lastTerm {
			lastTerm = out.TerminatedAt
		}
		honest := !e.scn.FaultOf(id).IsByzantine()
		if honest && !out.Terminated {
			allTerm = false
		}
		res.Customers[id] = out
	}
	for _, id := range topo.Escrows() {
		led := e.book.MustGet(id)
		res.Escrows[id] = core.EscrowOutcome{
			ID:           id,
			BalanceDelta: led.Balance(id),
			PendingLocks: len(led.PendingLocks()),
			AuditErr:     led.Audit(),
		}
	}
	bob := res.Customers[topo.Bob()]
	res.BobPaid = bob.Received > 0 || bob.NetWealthChange() > 0
	res.AllTerminated = allTerm
	if lastTerm > 0 {
		res.Duration = lastTerm
	} else {
		res.Duration = e.eng.Now()
	}
	return res
}
