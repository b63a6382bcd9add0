// Package booking emulates the airline ticket booking system of §3.2 and
// §5.2 on top of IDEA: an asynchronous e-business application where
// several wide-area booking servers each track their booking record
// independently for efficiency, accepting the risk of overselling in
// exchange for never underselling through lock contention.
//
// Casting onto IDEA's metric (§5.2): the critical metadata is the
// server's total sale price; numerical error is the sale gap between
// replicas; order error is out-of-order bookings (it matters when seats
// are assigned); staleness is the booking-record propagation delay. All
// three affect profit, so the weights are equal.
//
// Booking servers do not interact with end users about consistency;
// convergence relies on the fully-automatic background resolution whose
// frequency IDEA adapts within the learned undersell/oversell bounds.
package booking

import (
	"encoding/binary"
	"time"

	"idea/internal/core"
	"idea/internal/env"
	"idea/internal/id"
	"idea/internal/quantify"
	"idea/internal/vv"
	"idea/internal/wire"
)

// Server is one booking server bound to an IDEA node.
type Server struct {
	File id.FileID
	Node *core.Node
	// Inventory is the number of seats the flight started with.
	Inventory int
	// PricePerSeat values each seat for the sale-price metadata.
	PricePerSeat float64

	// Accepted counts seats this server itself sold.
	Accepted int
	// Rejected counts seats this server refused (it believed the
	// flight full).
	Rejected int
}

// New attaches a booking server for the given flight (file) to an IDEA
// node: equal weights and sale-gap metadata measured in seats.
func New(node *core.Node, file id.FileID, inventory int, price float64) (*Server, error) {
	s := &Server{File: file, Node: node, Inventory: inventory, PricePerSeat: price}
	// Numerical error in "seats of divergence": the sale-price gap is
	// normalized by the per-seat price.
	caster := newSaleCaster(price)
	if err := node.SetConsistencyMetric(30, 30, 30, caster); err != nil {
		return nil, err
	}
	if err := node.SetWeight(1.0/3, 1.0/3, 1.0/3); err != nil {
		return nil, err
	}
	return s, nil
}

// Book attempts to sell seats; it returns true when this server accepts
// the booking based on its local view. Acceptance writes a booking update
// through IDEA (triggering detection).
func (s *Server) Book(e env.Env, seats int) bool {
	if s.SoldLocally()+seats > s.Inventory {
		s.Rejected += seats
		return false
	}
	payload := make([]byte, 8)
	binary.BigEndian.PutUint64(payload, uint64(seats))
	s.Accepted += seats
	// The metadata carries the post-booking total sale price.
	sale := float64(s.SoldLocally()+seats) * s.PricePerSeat
	s.Node.Write(e, s.File, "book", payload, sale)
	return true
}

// SoldLocally returns the seats sold according to this server's replica
// (its possibly stale view of the global record).
func (s *Server) SoldLocally() int {
	sold := 0
	for _, u := range s.Node.Read(s.File) {
		if u.Op == "book" && len(u.Data) == 8 {
			sold += int(binary.BigEndian.Uint64(u.Data))
		}
	}
	return sold
}

// Oversold returns how many seats beyond inventory this replica currently
// records (0 when within inventory). Call it after convergence to measure
// the business damage of a too-slow resolution frequency.
func (s *Server) Oversold() int {
	if over := s.SoldLocally() - s.Inventory; over > 0 {
		return over
	}
	return 0
}

// EnableAutomatic switches the flight to the fully-automatic scheme with
// the given controller (§5.2) — the only consistency control a booking
// server uses.
func (s *Server) EnableAutomatic(e env.Env, ctl *core.AutoController, adjustEvery time.Duration) {
	s.Node.EnableAutomatic(e, s.File, ctl, adjustEvery)
}

// ReportOversell/ReportUndersell feed business outcomes back so IDEA can
// learn the frequency bounds.
func (s *Server) ReportOversell(e env.Env) { s.Node.ReportOversell(e, s.File) }

// ReportUndersell is the undersell dual.
func (s *Server) ReportUndersell(e env.Env) { s.Node.ReportUndersell(e, s.File) }

// Level reports this server's current consistency level.
func (s *Server) Level() float64 { return s.Node.Level(s.File) }

// GlobalSold sums distinct booked seats across a set of servers' logs —
// the omniscient measure the oversell experiments use.
func GlobalSold(servers []*Server) int {
	seen := make(map[wire.UpdateID]bool)
	total := 0
	for _, s := range servers {
		for _, u := range s.Node.Read(s.File) {
			if u.Op != "book" || seen[u.ID()] {
				continue
			}
			seen[u.ID()] = true
			total += int(binary.BigEndian.Uint64(u.Data))
		}
	}
	return total
}

// newSaleCaster scales the sale-price gap into seat units.
func newSaleCaster(price float64) func(replica, ref *vv.Vector) vv.Triple {
	return func(replica, ref *vv.Vector) vv.Triple {
		t := quantify.DefaultCaster()(replica, ref)
		if price > 0 {
			t.Numerical /= price
		}
		return t
	}
}

// Settlement is the periodic back-office reconciliation the paper's §5.2
// learning loop assumes: once records converge, it compares global sales
// against inventory and feeds oversell/undersell outcomes back into the
// automatic controllers so IDEA learns the frequency bounds.
type Settlement struct {
	// Servers being reconciled (they share one flight).
	Servers []*Server
	// TargetUtilization is the sold fraction of demand below which a
	// period is judged underselling (resolution locked bookings out);
	// zero means 0.5.
	TargetUtilization float64

	lastSold int
	// Oversells/Undersells count the outcomes reported so far.
	Oversells  int
	Undersells int
}

// Reconcile inspects the global record and reports the business outcome
// to every server's controller. demandSinceLast is how many seats were
// requested (accepted or not) since the previous reconciliation.
func (st *Settlement) Reconcile(e env.Env, demandSinceLast int) {
	if len(st.Servers) == 0 {
		return
	}
	target := st.TargetUtilization
	if target == 0 {
		target = 0.5
	}
	sold := GlobalSold(st.Servers)
	inv := st.Servers[0].Inventory
	newSales := sold - st.lastSold
	st.lastSold = sold
	switch {
	case sold > inv:
		st.Oversells++
		for _, s := range st.Servers {
			s.ReportOversell(e)
		}
	case demandSinceLast > 0 && float64(newSales) < target*float64(demandSinceLast) && sold < inv:
		// Plenty of unmet demand while seats remained: resolution ran
		// so often that booking was effectively squeezed out.
		st.Undersells++
		for _, s := range st.Servers {
			s.ReportUndersell(e)
		}
	}
}
