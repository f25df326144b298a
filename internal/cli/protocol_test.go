package cli_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shahin/internal/cli"
	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/rf"
	"shahin/internal/serve"
	"shahin/internal/store"
)

// The flags CI starts shahin-serve with, and what the four binaries'
// inline copies of the derivation made of them at 1c3b48a (captured by
// a throwaway program running that code, before any of it moved).
const (
	pinnedData    = "-dataset census -rows 800 -seed 1" // what the router takes
	pinnedFlags   = pinnedData + " -trees 12"
	pinnedStats   = "7483dc9618a0d2b7" // statsDigest
	pinnedPredict = "8d1198d56f63ad4f" // predictDigest over the first 200 held-out rows
	pinnedTrain   = 266
	pinnedHeld    = 534
	pinnedOptSeed = 4  // -seed + 3
	pinnedFltSeed = 18 // -seed + 17
)

// bootstrap resolves args the way a binary taking all the groups does.
func bootstrap(t *testing.T, args ...string) *cli.Env {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	data, model, faults := cli.DataFlags(fs), cli.ModelFlags(fs), cli.FaultFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	env, err := data.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Train(env, faults, nil); err != nil {
		t.Fatal(err)
	}
	return env
}

// statsOnly resolves args the way shahin-router does: data group only.
func statsOnly(t *testing.T, args ...string) *dataset.Stats {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	data := cli.DataFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	env, err := data.Load()
	if err != nil {
		t.Fatal(err)
	}
	return env.Stats
}

func statsDigest(st *dataset.Stats) string {
	h := fnv.New64a()
	put := func(xs []float64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	for a := range st.Freq {
		put(st.Freq[a])
		put(st.Edges[a])
	}
	put(st.Mean)
	put(st.Std)
	put(st.Lo)
	put(st.Hi)
	return fmt.Sprintf("%016x", h.Sum64())
}

func predictDigest(f *rf.Forest, rows [][]float64) string {
	h := fnv.New64a()
	for _, row := range rows {
		h.Write([]byte{byte(f.Predict(row))})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestDerivationPinned holds the protocol to what the binaries computed
// before it moved here: change the split fraction or any one seed
// offset in protocol.go and a row below fails.
func TestDerivationPinned(t *testing.T) {
	env := bootstrap(t, append(strings.Fields(pinnedFlags), "-fail-rate", "0.05")...)
	if env.Options.Fault == nil {
		t.Fatal("-fail-rate 0.05 configured no fault chain")
	}
	for _, row := range []struct {
		what      string
		got, want any
	}{
		{"training rows (split fraction)", env.Train.NumRows(), pinnedTrain},
		{"held-out rows (split fraction)", env.Held.NumRows(), pinnedHeld},
		{"Stats digest (split seed)", statsDigest(env.Stats), pinnedStats},
		{"forest.Predict digest (forest seed)", predictDigest(env.Forest, env.HeldOut(200)), pinnedPredict},
		{"Options.Seed (explainer seed)", env.Options.Seed, int64(pinnedOptSeed)},
		{"Options.Fault.Seed (fault seed)", env.Options.Fault.Seed, int64(pinnedFltSeed)},
	} {
		if row.got != row.want {
			t.Errorf("%s for %q: got %v, want %v", row.what, pinnedFlags, row.got, row.want)
		}
	}
	if faultless := bootstrap(t, "-rows", "800", "-trees", "12", "-retries", "5"); faultless.Options.Fault != nil {
		t.Error("a fault chain was configured though no fault flag asked for one")
	}
}

// TestEqualFlagsEqualModel is the property every reuse layer leans on:
// equal flags give byte-equal Stats and the same forest in every
// process, the router's data-group-only load included, and the CSV
// shahin-datagen writes loads to the Stats of the synthetic path.
func TestEqualFlagsEqualModel(t *testing.T) {
	args := strings.Fields(pinnedFlags)
	a, b := bootstrap(t, args...), bootstrap(t, args...)
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Error("two loads of equal flags disagree on Stats")
	}
	held := a.HeldOut(200)
	if predictDigest(a.Forest, held) != predictDigest(b.Forest, held) {
		t.Error("two loads of equal flags trained different forests")
	}
	if router := statsOnly(t, strings.Fields(pinnedData)...); !reflect.DeepEqual(router, a.Stats) {
		t.Error("the router-side load (data group only) disagrees with the replica-side Stats")
	}

	other := bootstrap(t, append(strings.Fields(pinnedData), "-trees", "13")...)
	if !reflect.DeepEqual(other.Stats, a.Stats) {
		t.Error("-trees moved Stats")
	}
	if predictDigest(other.Forest, held) == predictDigest(a.Forest, held) {
		t.Error("-trees 13 predicts exactly as -trees 12: the flag did not reach the forest")
	}

	// shahin-datagen's path: generate, WriteCSV.
	spec, err := datagen.Spec("census")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(800, 1)
	if err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(t.TempDir(), "census.csv")
	if err := cli.WriteFile(csv, func(w io.Writer) error { return dataset.WriteCSV(w, d) }); err != nil {
		t.Fatal(err)
	}
	if got := statsDigest(statsOnly(t, "-dataset", "census", "-data", csv, "-seed", "1")); got != pinnedStats {
		t.Errorf("Stats digest through -data = %s, want the synthetic path's %s", got, pinnedStats)
	}
}

// TestStoreBuiltForTheServerThatLoadsIt is shahin-store's reason to
// take the shared groups: a store built at the flags CI serves with
// (-trees 12, which shahin-store could not express before) is answered
// from, byte for byte, by a server bootstrapped from the same flags.
func TestStoreBuiltForTheServerThatLoadsIt(t *testing.T) {
	args := strings.Fields(pinnedFlags)

	// shahin-store -mode build -n 8
	build := bootstrap(t, args...)
	tuples := build.HeldOut(8)
	batch, err := core.NewBatch(build.Stats, build.Forest, build.Options)
	if err != nil {
		t.Fatal(err)
	}
	res, err := batch.ExplainAll(tuples)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(tuples, res.Explanations)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "exps.gob")
	if err := cli.WriteFile(path, st.Save); err != nil {
		t.Fatal(err)
	}

	// shahin-serve -store exps.gob
	replica := bootstrap(t, args...)
	warm, err := core.NewWarm(replica.Stats, replica.Forest, replica.Options, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(warm, serve.Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain(context.Background())
	if srv.StoreLen() != len(tuples) {
		t.Fatalf("server restored %d explanations, want %d", srv.StoreLen(), len(tuples))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i, tuple := range replica.HeldOut(8) {
		body, err := json.Marshal(serve.ExplainRequest{Tuple: tuple})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got serve.ExplainResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Source != "store" {
			t.Errorf("held-out tuple %d answered from %q, want the store", i, got.Source)
		}
		want, _ := json.Marshal(res.Explanations[i])
		have, _ := json.Marshal(got.Explanation)
		if !bytes.Equal(want, have) {
			t.Errorf("held-out tuple %d: served explanation differs from the stored bytes", i)
		}
		// The stored answer is about this server's forest.
		if c := replica.Forest.Predict(tuple); got.Explanation.Attribution.Class != c {
			t.Errorf("held-out tuple %d: stored class %d, this server's forest predicts %d", i, got.Explanation.Attribution.Class, c)
		}
	}
}

// An -explainer no kind answers to, such as sshap, is refused before
// any training, and the error names the four kinds there are.
func TestUnknownExplainerRefused(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	data, model := cli.DataFlags(fs), cli.ModelFlags(fs)
	if err := fs.Parse(strings.Fields("-dataset census -rows 200 -explainer sshap")); err != nil {
		t.Fatal(err)
	}
	env, err := data.Load()
	if err != nil {
		t.Fatal(err)
	}
	err = model.Train(env, nil, nil)
	if err == nil {
		t.Fatal("-explainer sshap trained a model")
	}
	for _, kind := range []string{"lime", "anchor", "shap", "exactshap"} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not name %s", err, kind)
		}
	}
	if env.Forest != nil {
		t.Error("a forest was trained before the explainer was checked")
	}
}
