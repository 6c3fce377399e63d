package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/eval"
)

// datasetSeed fixes the generated datasets themselves, as the paper's
// datasets are fixed; the run's -seed drives what is drawn from them
// (value encoding, request order, delta choices). Keeping the relation
// and Σ fixed keeps seed-to-seed spread down to what the workload's
// inputs really vary.
const datasetSeed = 1

// carsInjectSeed fixes which Cars cells go missing. Over injection seeds
// 1–10 one in-process clean took 5.6–13.6 s on a 2-vCPU VM, verify
// 89–96 % of it in every case; seed 4 was the cheapest, so a run of a
// given length holds the most cleans (seed 1 allowed only two in 20 s).
const carsInjectSeed = 4

// Sizes: Cars at the paper's full 406 tuples; Restaurant's 864 split into
// a 664-tuple base and 200 held-out tuples (1200 requests).
const (
	carsTuples       = 406
	carsMissingRate  = 0.20
	restaurantTuples = 864
	restaurantBase   = 664

	tinyCarsTuples       = 60
	tinyRestaurantTuples = 120
	tinyRestaurantBase   = 90
)

// cleanInputs is the clean_cars input: the dirty relation and its ground
// truth.
type cleanInputs struct {
	clean    *dataset.Relation
	dirty    *dataset.Relation
	injected []eval.Injected
}

// makeCleanInputs fixes which cells are missing and the row order, and
// lets the run's seed re-encode the values without changing any
// pairwise distance: every integer column is shifted by a seeded
// offset and the letters and digits of every string go through a
// seeded substitution (edit distance is invariant under a one-to-one
// relabelling of symbols). Each seed is a different file that needs the
// same cleaning work. Drawing the missing cells or the row order from
// the seed instead moved one clean between 3.4 s and 9.2 s (injection)
// or 4.3 s and 7.1 s (row order) over five seeds: the work, not the
// program, would have set the spread.
func makeCleanInputs(cfg config) (*cleanInputs, error) {
	n := carsTuples
	if cfg.tiny {
		n = tinyCarsTuples
	}
	clean := reencode(datagen.Cars(n, datasetSeed), rand.New(rand.NewSource(cfg.seed)))
	dirty, injected, err := eval.Inject(clean, carsMissingRate, carsInjectSeed)
	if err != nil {
		return nil, err
	}
	return &cleanInputs{clean: clean, dirty: dirty, injected: injected}, nil
}

// reencode returns rel with every integer column shifted by a random
// offset and every string passed through a random substitution of
// lowercase letters, uppercase letters and digits, each within its own
// class so numbers stay digits and words stay words.
func reencode(rel *dataset.Relation, rng *rand.Rand) *dataset.Relation {
	subst := map[rune]rune{}
	for _, class := range []string{"abcdefghijklmnopqrstuvwxyz", "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "0123456789"} {
		from := []rune(class)
		for i, j := range rng.Perm(len(from)) {
			subst[from[i]] = from[j]
		}
	}
	m := rel.Schema().Len()
	shift := make([]int64, m)
	for a := range shift {
		shift[a] = int64(rng.Intn(1000))
	}
	out := dataset.NewRelation(rel.Schema())
	for i := 0; i < rel.Len(); i++ {
		t := rel.Row(i).Clone()
		for a, v := range t {
			switch v.Kind() {
			case dataset.KindInt:
				t[a] = dataset.NewInt(v.Int() + shift[a])
			case dataset.KindString:
				t[a] = dataset.NewString(strings.Map(func(r rune) rune {
					if s, ok := subst[r]; ok {
						return s
					}
					return r
				}, v.Str()))
			}
		}
		out.MustAppend(t)
	}
	return out
}

// request is one held-out tuple with one cell blanked.
type request struct {
	tuple dataset.Tuple // the blanked cell is dataset.Null
	blank int
	truth dataset.Value
	obj   []byte // the tuple as a JSON object, keys sorted, blank = null
	body  []byte // obj as a one-tuple /v1/impute batch
}

// serveInputs is the serve_* input: the clean base the artifact is
// compiled from and the read stream of held-out requests.
type serveInputs struct {
	base     *dataset.Relation
	requests []request
}

func makeServeInputs(cfg config) (*serveInputs, error) {
	total, nBase := restaurantTuples, restaurantBase
	if cfg.tiny {
		total, nBase = tinyRestaurantTuples, tinyRestaurantBase
	}
	all := datagen.Restaurant(total, datasetSeed)
	// The generator emits near-duplicates next to their originals; a fixed
	// shuffle spreads them across the base and the held-out set, so most
	// held-out tuples have a donor in the base.
	order := rand.New(rand.NewSource(datasetSeed)).Perm(all.Len())
	schema := all.Schema()
	base := dataset.NewRelation(schema)
	for _, i := range order[:nBase] {
		base.MustAppend(all.Row(i).Clone())
	}

	// Every held-out tuple is requested once with each of its cells
	// blanked; the seed sets the order. Blanking one seeded cell per
	// tuple instead moved f1 and CPU per tuple by 6–13 % between seeds.
	in := &serveInputs{base: base}
	for _, i := range order[nBase:] {
		for blank := 0; blank < schema.Len(); blank++ {
			t := all.Row(i).Clone()
			truth := t[blank]
			t[blank] = dataset.Null
			obj, err := tupleJSON(schema, t)
			if err != nil {
				return nil, err
			}
			body := append(append([]byte{'['}, obj...), ']')
			in.requests = append(in.requests, request{tuple: t, blank: blank, truth: truth, obj: obj, body: body})
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(in.requests), func(a, b int) { in.requests[a], in.requests[b] = in.requests[b], in.requests[a] })
	return in, nil
}

// batchBody is the /v1/impute body of batchSize requests starting at
// request k*batchSize (wrapping around), and the indexes of those
// requests.
func (in *serveInputs) batchBody(k, batchSize int) ([]byte, []int) {
	var buf bytes.Buffer
	idx := make([]int, batchSize)
	buf.WriteByte('[')
	for j := 0; j < batchSize; j++ {
		i := (k*batchSize + j) % len(in.requests)
		idx[j] = i
		if j > 0 {
			buf.WriteByte(',')
		}
		buf.Write(in.requests[i].obj)
	}
	buf.WriteByte(']')
	return buf.Bytes(), idx
}

// jsonValue renders one cell the way the serve batch codec does.
func jsonValue(v dataset.Value) any {
	switch v.Kind() {
	case dataset.KindString:
		return v.Str()
	case dataset.KindInt:
		return v.Int()
	case dataset.KindFloat:
		return v.Float()
	case dataset.KindBool:
		return v.Bool()
	}
	return nil
}

// tupleJSON renders a tuple as an attribute-keyed JSON object. Map keys
// marshal sorted, so equal tuples render to equal bytes — the form the
// server's responses take too.
func tupleJSON(schema *dataset.Schema, t dataset.Tuple) ([]byte, error) {
	m := make(map[string]any, schema.Len())
	for a := 0; a < schema.Len(); a++ {
		m[schema.Attr(a).Name] = jsonValue(t[a])
	}
	return json.Marshal(m)
}

// decodeTuple is the inverse of tupleJSON under the schema's kinds.
func decodeTuple(schema *dataset.Schema, raw json.RawMessage) (dataset.Tuple, error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, err
	}
	if len(obj) != schema.Len() {
		return nil, fmt.Errorf("tuple has %d attributes, schema %d", len(obj), schema.Len())
	}
	t := make(dataset.Tuple, schema.Len())
	for a := 0; a < schema.Len(); a++ {
		v, ok := obj[schema.Attr(a).Name]
		if !ok {
			return nil, fmt.Errorf("tuple lacks attribute %q", schema.Attr(a).Name)
		}
		if string(v) == "null" {
			continue
		}
		var err error
		switch schema.Attr(a).Kind {
		case dataset.KindString:
			var s string
			err = json.Unmarshal(v, &s)
			t[a] = dataset.NewString(s)
		case dataset.KindInt:
			var n int64
			err = json.Unmarshal(v, &n)
			t[a] = dataset.NewInt(n)
		case dataset.KindFloat:
			var f float64
			err = json.Unmarshal(v, &f)
			t[a] = dataset.NewFloat(f)
		case dataset.KindBool:
			var b bool
			err = json.Unmarshal(v, &b)
			t[a] = dataset.NewBool(b)
		}
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", schema.Attr(a).Name, err)
		}
	}
	return t, nil
}

// deltaStream generates the steady-state serve_live writes. Each delta
// deletes one base tuple and re-inserts it at the end, and updates one
// cell of another tuple to the value it already holds: the base keeps
// its row count and its multiset of tuples, so Σ has nothing to repair
// and does not decay over a run. rows mirrors the server's base order
// (deltas are applied one at a time, in order).
type deltaStream struct {
	rng    *rand.Rand
	schema *dataset.Schema
	rows   []dataset.Tuple
}

func newDeltaStream(base *dataset.Relation, seed int64) *deltaStream {
	rows := make([]dataset.Tuple, base.Len())
	for i := range rows {
		rows[i] = base.Row(i).Clone()
	}
	return &deltaStream{rng: rand.New(rand.NewSource(seed)), schema: base.Schema(), rows: rows}
}

// deltaOp is one write, as the library call and as the HTTP body.
type deltaOp struct {
	delta core.Delta
	body  []byte
}

func (s *deltaStream) next() (deltaOp, error) {
	n := len(s.rows)
	del := s.rng.Intn(n)
	upd := s.rng.Intn(n - 1)
	if upd >= del {
		upd++
	}
	attr := s.rng.Intn(s.schema.Len())
	moved := s.rows[del]
	ins, err := tupleJSON(s.schema, moved)
	if err != nil {
		return deltaOp{}, err
	}
	val, err := json.Marshal(jsonValue(s.rows[upd][attr]))
	if err != nil {
		return deltaOp{}, err
	}
	op := deltaOp{
		delta: core.Delta{
			Inserts: []dataset.Tuple{moved.Clone()},
			Updates: []core.CellUpdate{{Row: upd, Attr: attr, Value: s.rows[upd][attr]}},
			Deletes: []int{del},
		},
		body: []byte(fmt.Sprintf(`{"inserts":[%s],"updates":[{"row":%d,"attr":%q,"value":%s}],"deletes":[%d]}`,
			ins, upd, s.schema.Attr(attr).Name, val, del)),
	}
	s.rows = append(append(s.rows[:del:del], s.rows[del+1:]...), moved)
	return op, nil
}

// setQuality stores f1, precision and recall. A run in which no
// imputation was correct fails its check: a zero quality metric means
// the program is broken, not that it got slower.
func setQuality(out *outcome, m eval.Metrics) {
	out.values["f1"] = m.F1
	out.values["precision"] = m.Precision
	out.values["recall"] = m.Recall
	if m.Correct == 0 {
		out.problem("no imputation was correct (%s)", m)
	}
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-quantile (0 < q <= 1); 0 for none.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
