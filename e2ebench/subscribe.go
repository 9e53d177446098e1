package main

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"infosleuth/internal/agent"
	"infosleuth/internal/broker"
	"infosleuth/internal/kqml"
	"infosleuth/internal/ontology"
	"infosleuth/internal/relational"
	"infosleuth/internal/resource"
	"infosleuth/internal/transport"
)

// The subscribe workload: one resource agent holding subsStanding
// standing queries over C2(id, a), each a narrow window of a, so an
// insert overlaps ~1.5 of them. Inserts are skewed: subsHotShare of them
// land in the lowest subsHotFrac of the domain.
const (
	subsStanding = 10_000
	subsDomain   = 1_000_000
	subsWidth    = 150
	subsBaseRows = 2_000
	subsHotFrac  = 0.10
	subsHotShare = 0.80
	// subsWait bounds how long an insert's notifications may take before
	// they count as missing.
	subsWait = 10 * time.Second
)

// subWindow is the a-range one standing query selects.
type subWindow struct{ lo, hi int }

func genSubWindow(seed int64, j int) subWindow {
	lo := between(seed, uint64(j), 0x5b, 0, subsDomain-subsWidth)
	return subWindow{lo, lo + subsWidth}
}

// genInsert returns the a value operation i inserts.
func genInsert(seed int64, i int) int {
	if unit(seed, uint64(i), 1) < subsHotShare {
		return between(seed, uint64(i), 2, 0, int(subsDomain*subsHotFrac))
	}
	return between(seed, uint64(i), 2, 0, subsDomain)
}

// insertState tracks one insert until every overlapping subscription has
// received an update holding its row.
type insertState struct {
	due  time.Time
	subs []int  // overlapping subscriptions
	got  []bool // whether subs[k] has been notified
	left int
	done chan struct{} // closed when left reaches 0
}

type subscribeRig struct {
	seed    int64
	t       *tracer
	windows []subWindow
	byLo    []int // subscription indexes sorted by window start
	broker  *broker.Broker
	ra      *resource.Agent
	sink    transport.Listener

	mu       sync.Mutex
	subIndex map[string]int // subscription ID -> window index
	pending  map[int]*insertState
	notified []time.Duration
	updates  int
	wrong    int
	released bool // the oracle state is gone; updates are only acknowledged
}

// buildSubscribe starts a broker and the resource agent, then registers
// every standing query over the wire, from nproc concurrent callers.
func buildSubscribe(seed int64, windows []subWindow, byLo []int, callers int, t *tracer) (*subscribeRig, error) {
	ctx := context.Background()
	r := &subscribeRig{seed: seed, t: t, windows: windows, byLo: byLo,
		subIndex: make(map[string]int, len(windows)), pending: make(map[int]*insertState)}
	world := ontology.NewWorld(ontology.Generic(), ontology.Healthcare())
	b, err := broker.New(broker.Config{
		Name: "Broker1", Address: loopback, Transport: tcp(t, "broker"), World: world,
		MaxHopCount: 4, Community: "default", Consortia: []string{"consortium-1"},
	})
	if err != nil {
		return nil, err
	}
	if err := b.Start(); err != nil {
		return nil, err
	}
	r.broker = b
	db := relational.NewDatabase()
	tbl := db.MustCreate(relational.Schema{Name: "C2", Key: "id", Columns: []relational.Column{
		{Name: "id", Type: relational.TypeString}, {Name: "a", Type: relational.TypeNumber}}})
	for k := 0; k < subsBaseRows; k++ {
		tbl.MustInsert(relational.Row{relational.Str(fmt.Sprintf("base-%04d", k)),
			relational.Num(float64(k * subsDomain / subsBaseRows))})
	}
	ra, err := resource.New(resource.Config{
		Name: "C2 resource agent", Address: loopback, Transport: tcp(t, "resource"),
		KnownBrokers: []string{b.Addr()}, Redundancy: 1, DB: db,
		Fragment: ontology.Fragment{Ontology: "generic", Classes: []string{"C2"}},
		World:    world, EstimatedResponseSec: 5,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	if err := ra.Start(); err != nil {
		r.close()
		return nil, err
	}
	r.ra = ra
	if _, err := ra.Advertise(ctx); err != nil {
		r.close()
		return nil, err
	}
	client, err := agent.New(agent.Config{Name: "subscriber", Transport: tcp(t, "bench")})
	if err != nil {
		r.close()
		return nil, err
	}
	sink, err := tcp(t, "bench").Listen(loopback, r.handleUpdate)
	if err != nil {
		r.close()
		return nil, err
	}
	r.sink = sink

	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := c; j < len(windows); j += callers {
				if err := r.subscribe(ctx, client, j); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *subscribeRig) subscribe(ctx context.Context, client *agent.Base, j int) error {
	w := r.windows[j]
	msg := kqml.New(kqml.Subscribe, "subscriber", &kqml.SubscribeContent{
		SQL:               fmt.Sprintf("SELECT id, a FROM C2 WHERE a BETWEEN %d AND %d", w.lo, w.hi),
		SubscriberName:    "subscriber",
		SubscriberAddress: r.sink.Addr(),
	})
	reply, err := client.Call(ctx, r.ra.Addr(), msg)
	if err != nil {
		return fmt.Errorf("subscribe %d: %w", j, err)
	}
	var ack kqml.SubscribeAck
	if reply.Performative != kqml.Tell || reply.DecodeContent(&ack) != nil {
		return fmt.Errorf("subscribe %d: %s", j, kqml.ReasonOf(reply))
	}
	r.mu.Lock()
	r.subIndex[ack.ID] = j
	r.mu.Unlock()
	return nil
}

// overlapping returns the subscriptions whose window holds a.
func (r *subscribeRig) overlapping(a int) []int {
	from := sort.Search(len(r.byLo), func(k int) bool { return r.windows[r.byLo[k]].lo >= a-subsWidth })
	var out []int
	for _, j := range r.byLo[from:] {
		w := r.windows[j]
		if w.lo > a {
			break
		}
		if a <= w.hi {
			out = append(out, j)
		}
	}
	return out
}

// handleUpdate is the subscriber endpoint: it marks each pending insert
// the update's result holds as delivered to that subscription, checks
// every row lies in the subscription's window, and acknowledges.
func (r *subscribeRig) handleUpdate(msg *kqml.Message) *kqml.Message {
	now := time.Now()
	var uc kqml.UpdateContent
	if err := msg.DecodeContent(&uc); err != nil {
		return kqml.New(kqml.Error, "subscriber", &kqml.SorryContent{Reason: err.Error()})
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released {
		return kqml.New(kqml.Tell, "subscriber", &kqml.UpdateAck{SubscriptionID: uc.SubscriptionID, Seq: uc.Seq})
	}
	r.updates++
	j, ok := r.subIndex[uc.SubscriptionID]
	if !ok {
		slog.Warn("update for an unknown subscription", "subscription", uc.SubscriptionID)
		r.wrong++
		return kqml.New(kqml.Tell, "subscriber", &kqml.UpdateAck{SubscriptionID: uc.SubscriptionID, Seq: uc.Seq})
	}
	w := r.windows[j]
	for _, row := range uc.Result.Rows {
		if len(row) < 2 || row[1].Number() < float64(w.lo) || row[1].Number() > float64(w.hi) {
			slog.Warn("row outside the subscription's window", "subscription", uc.SubscriptionID, "row", row)
			r.wrong++
			continue
		}
		id := row[0].Text()
		if !strings.HasPrefix(id, "ins-") {
			continue
		}
		i, err := strconv.Atoi(id[len("ins-"):])
		if err != nil {
			continue
		}
		st := r.pending[i]
		if st == nil {
			continue
		}
		for k, s := range st.subs {
			if s == j && !st.got[k] {
				st.got[k] = true
				st.left--
				r.notified = append(r.notified, now.Sub(st.due))
				if st.left == 0 && st.done != nil {
					close(st.done)
				}
			}
		}
	}
	return kqml.New(kqml.Tell, "subscriber", &kqml.UpdateAck{SubscriptionID: uc.SubscriptionID, Seq: uc.Seq})
}

func (r *subscribeRig) op(ctx context.Context, i int, due time.Time, wait bool) result {
	a := genInsert(r.seed, i)
	subs := r.overlapping(a)
	st := &insertState{due: due, subs: subs, got: make([]bool, len(subs)), left: len(subs)}
	if wait && len(subs) > 0 {
		st.done = make(chan struct{})
	}
	r.mu.Lock()
	r.pending[i] = st
	r.mu.Unlock()
	ctx, trace := traced(ctx, r.t, r.seed, i)
	start := r.t.now()
	err := r.ra.InsertRow(ctx, "C2", relational.Row{relational.Str("ins-" + strconv.Itoa(i)), relational.Num(float64(a))})
	if trace != "" {
		r.t.local(trace, start, r.t.now())
	}
	res := result{primary: time.Since(due), hasPrimary: true, failed: err != nil}
	if st.done != nil && err == nil {
		select {
		case <-st.done:
		case <-time.After(subsWait):
		case <-ctx.Done():
		}
	}
	return res
}

// settle drains the notification pipeline, then reports the notification
// latencies gathered since the previous settle and the inserts whose
// overlapping subscriptions were not all notified.
func (r *subscribeRig) settle(ctx context.Context) ([]time.Duration, int) {
	fctx, cancel := context.WithTimeout(ctx, subsWait)
	defer cancel()
	_ = r.ra.FlushNotifications(fctx) // a timeout shows as missing notifications below
	deadline := time.Now().Add(subsWait)
	for {
		r.mu.Lock()
		left := 0
		for _, st := range r.pending {
			left += st.left
		}
		if left == 0 || time.Now().After(deadline) {
			missing := 0
			for _, st := range r.pending {
				if st.left > 0 {
					missing++
				}
			}
			notified := r.notified
			r.notified = nil
			r.pending = make(map[int]*insertState)
			r.mu.Unlock()
			return notified, missing
		}
		r.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// verify reports updates that named an unknown subscription or held a
// row outside the subscription's window.
func (r *subscribeRig) verify() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.wrong
	r.wrong = 0
	return w
}

// takeUpdates returns the updates received since the previous call.
func (r *subscribeRig) takeUpdates() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	u := r.updates
	r.updates = 0
	return u
}

func (r *subscribeRig) release() {
	r.mu.Lock()
	r.windows, r.byLo, r.subIndex, r.pending, r.notified = nil, nil, nil, nil, nil
	r.released = true
	r.mu.Unlock()
}

func (r *subscribeRig) close() {
	if r.ra != nil {
		r.ra.Stop()
	}
	if r.sink != nil {
		r.sink.Close()
	}
	if r.broker != nil {
		r.broker.Stop()
	}
}

// subscribeWindows generates the standing queries' windows and their
// order by window start.
func subscribeWindows(seed int64) ([]subWindow, []int) {
	windows := make([]subWindow, subsStanding)
	byLo := make([]int, subsStanding)
	for j := range windows {
		windows[j] = genSubWindow(seed, j)
		byLo[j] = j
	}
	sort.Slice(byLo, func(a, b int) bool { return windows[byLo[a]].lo < windows[byLo[b]].lo })
	return windows, byLo
}
