package core

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
)

// ImputeWithDonors is the paper's first future-work extension (Sec. 7):
// "to increase the number of imputed values, we would like to extend
// RENUVER with the possibility of selecting plausible candidate tuples
// among multiple datasets."
//
// The algorithm is unchanged except that FIND_CANDIDATE_TUPLES also
// scans the donor relations: their tuples can contribute candidate
// values but are never imputed themselves, never verified against
// (semantic consistency per Definition 4.3 concerns the target
// instance), and never affect key-RFDc status (Definition 3.4 is defined
// on the target instance). Donor schemas must match the target's.
//
// The combined search space is one engine view: target rows first, then
// each donor relation's rows, so candidate flat indices order by
// (source, row) exactly as the ranking tiebreak requires.
func (im *Imputer) ImputeWithDonors(rel *dataset.Relation, donors []*dataset.Relation) (*Result, error) {
	return im.ImputeWithDonorsContext(context.Background(), rel, donors)
}

// ImputeWithDonorsContext is ImputeWithDonors with cooperative
// cancellation, under the same contract as ImputeContext: an expired
// context returns the partial well-formed result and a typed
// engine.ErrCanceled. Callers imputing many requests against the same
// donor pool should precompile it once via NewSession instead.
func (im *Imputer) ImputeWithDonorsContext(ctx context.Context, rel *dataset.Relation, donors []*dataset.Relation) (*Result, error) {
	for i, d := range donors {
		if !d.Schema().Equal(rel.Schema()) {
			return nil, fmt.Errorf("core: donor %d schema %q incompatible with target %q",
				i, d.Schema(), rel.Schema())
		}
	}
	if err := validateSigma(im.sigma, rel.Schema().Len()); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return &Result{}, engine.Canceled(ctx)
	}
	work := rel.Clone()
	eng := engine.CompileWithDonors(work, donors)
	// Σ' selection, candidate search, ranking and verification are
	// shared with the single-instance path via runImpute.
	return im.runImpute(ctx, work, eng)
}
