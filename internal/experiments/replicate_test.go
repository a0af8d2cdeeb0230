package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestSummarise(t *testing.T) {
	m := Summarise([]float64{1, 2, 3, 4, 5})
	if m.Mean != 3 || m.N != 5 {
		t.Errorf("mean/n = %v/%d", m.Mean, m.N)
	}
	// SE = sqrt(2.5/5) = 0.7071
	if math.Abs(m.StdErr-math.Sqrt(0.5)) > 1e-9 {
		t.Errorf("stderr = %v", m.StdErr)
	}
	if !(m.Lo < m.Mean && m.Mean < m.Hi) {
		t.Error("CI does not bracket the mean")
	}
	if !strings.Contains(m.String(), "n=5") {
		t.Error("String() incomplete")
	}
	if z := Summarise(nil); z.N != 0 {
		t.Error("empty sample not zero")
	}
	one := Summarise([]float64{7})
	if one.Mean != 7 || one.StdErr != 0 {
		t.Error("single sample summary wrong")
	}
}

func TestReplicateErrors(t *testing.T) {
	if _, err := Replicate(0, 0, 1, nil); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := Replicate(0, 2, 1, func(uint64) (float64, error) {
		return 0, errFail
	}); err == nil {
		t.Error("inner error not propagated")
	}
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "fail" }

func TestReplicateDeterministic(t *testing.T) {
	f := func(seed uint64) (float64, error) { return float64(seed * seed), nil }
	a, err := Replicate(0, 4, 10, f)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Replicate(0, 4, 10, f)
	if a != b {
		t.Error("replication not deterministic")
	}
	want := float64(100+121+144+169) / 4
	if a.Mean != want {
		t.Errorf("mean = %v, want %v", a.Mean, want)
	}
}

// The headline result with statistical backing: the combined factor's 95 %
// CI lower bound clears 2.5 across independent workload realisations.
func TestTable5FactorReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated table 5 is slow")
	}
	m, err := Table5FactorReplicated(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 5 {
		t.Fatalf("n = %d", m.N)
	}
	if m.Lo < 2.5 {
		t.Errorf("combined factor CI = %s; lower bound below 2.5", m)
	}
}

func TestTable3ReplicatedClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated table 3 is slow")
	}
	saving, err := Table3SavingReplicated(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if saving.Lo <= 0 {
		t.Errorf("change-point saving vs max CI = %s; should be clearly positive", saving)
	}
	excess, err := ChangePointExcessReplicated(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// "Very close to the ideal": within 2 % on average.
	if excess.Mean > 0.02 {
		t.Errorf("change-point energy excess over ideal = %s; want <= 2%%", excess)
	}
}

// TestReplicateWorkerCountInvariant is the parallel layer's acceptance
// criterion on the experiments side: the replicated Metric must be identical
// for Workers=1 and Workers=8 across several base seeds, including through a
// real simulation-backed experiment (Fig6 regenerates a workload and fits it
// per seed).
func TestReplicateWorkerCountInvariant(t *testing.T) {
	fig6 := func(seed uint64) (float64, error) {
		r, err := Fig6(seed)
		if err != nil {
			return 0, err
		}
		return r.MeanAbsError, nil
	}
	for _, baseSeed := range []uint64{1, 7, 1234} {
		serial, err := Replicate(1, 6, baseSeed, fig6)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := Replicate(8, 6, baseSeed, fig6)
		if err != nil {
			t.Fatal(err)
		}
		if serial != wide {
			t.Errorf("base seed %d: Workers=1 %+v != Workers=8 %+v", baseSeed, serial, wide)
		}
	}
}
