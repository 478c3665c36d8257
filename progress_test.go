package potemkin

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"potemkin/internal/guest"
	"potemkin/internal/sim"
	"potemkin/internal/worm"
)

// progressRun drives a honeyfarm built from opts once, passing the
// progress option to the entry point, and returns its final Stats.
type progressRun func(t *testing.T, opts Options, progress ReplayOption) Stats

// TestWithProgressMatchesAcrossModes: the progress observer's ticks —
// barrier times and Stats — are the same sequentially and under
// Parallel, at two and four shards, through each entry point that
// honours WithProgress, and for a drop-all worm outbreak replayed from
// the epidemic's source. It fires at the first barrier at or past each
// multiple of its interval, and it only reads: the final Stats equal a
// run without it.
func TestWithProgressMatchesAcrossModes(t *testing.T) {
	recs := wireTestTrace(t)
	base := func(shards int) Options {
		return Options{Seed: wireSeed, GatewayShards: shards, Policy: InternalReflect, IdleTimeout: time.Second}
	}
	entries := []struct {
		name  string
		every time.Duration
		opts  func(t *testing.T, shards int) Options
		run   progressRun
	}{
		{"Replay", 500 * time.Millisecond, func(_ *testing.T, shards int) Options { return base(shards) },
			func(t *testing.T, opts Options, progress ReplayOption) Stats {
				hf := MustNew(opts)
				defer hf.Close()
				if _, err := hf.Replay(SliceSource(recs), progress); err != nil {
					t.Fatal(err)
				}
				return hf.Stats()
			}},
		{"Outbreak", 5 * time.Second, func(_ *testing.T, shards int) Options {
			return Options{Seed: 7, GatewayShards: shards, Policy: DropAll}
		}, func(t *testing.T, opts Options, progress ReplayOption) Stats {
			wcfg := worm.DefaultConfig()
			wcfg.InitialInfected = 2000
			wcfg.ScanRate = 50
			wcfg.ExploitPayload = guest.WindowsXP().ExploitPayload(0)
			hf := MustNew(opts)
			defer hf.Close()
			if _, err := hf.Replay(worm.New(wcfg).Source(sim.Start.Add(20*time.Second)), progress); err != nil {
				t.Fatal(err)
			}
			st := hf.Stats()
			if st.InfectedVMs == 0 || st.OutboundDropped == 0 {
				t.Errorf("the outbreak infected no honeypot or dropped nothing: %+v", st)
			}
			return st
		}},
		{"RunScenario", time.Second, func(t *testing.T, shards int) Options {
			opts := goldenOptions(t, "multistage")
			opts.Servers, opts.GatewayShards = 4, shards
			return opts
		}, func(t *testing.T, opts Options, progress ReplayOption) Stats {
			hf := MustNew(opts)
			defer hf.Close()
			if _, err := hf.RunScenario(progress); err != nil {
				t.Fatal(err)
			}
			return hf.Stats()
		}},
		{"Serve", 500 * time.Millisecond, func(_ *testing.T, shards int) Options {
			opts := base(shards)
			opts.Wire = &WireOptions{Addr: "127.0.0.1:0"}
			return opts
		}, func(t *testing.T, opts Options, progress ReplayOption) Stats {
			return serveLive(t, opts, recs, progress)
		}},
	}
	for _, e := range entries {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", e.name, shards), func(t *testing.T) {
				seqOpts := e.opts(t, shards)
				parOpts := seqOpts
				parOpts.Parallel = true
				observe := func(opts Options) ([]Stats, Stats) {
					var ticks []Stats
					final := e.run(t, opts, WithProgress(e.every, func(st Stats) { ticks = append(ticks, st) }))
					return ticks, final
				}
				seq, seqFinal := observe(seqOpts)
				par, parFinal := observe(parOpts)
				if len(seq) < 2 {
					t.Fatalf("%d ticks over a %v run at every %v", len(seq), seqFinal.Now, e.every)
				}
				for i, st := range seq {
					// Tick i is the first barrier at or past the multiple
					// it reports, and the multiples do not repeat.
					if m := st.Now - st.Now%e.every; i > 0 && m <= seq[i-1].Now-seq[i-1].Now%e.every {
						t.Errorf("tick %d at %v reports the multiple %v again", i, st.Now, m)
					}
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("ticks differ:\nsequential %+v\nparallel   %+v", seq, par)
				}
				if seqFinal != parFinal {
					t.Errorf("final stats differ:\nsequential %+v\nparallel   %+v", seqFinal, parFinal)
				}
				if seq[0].Now < e.every {
					t.Errorf("the first tick, at %v, comes before the first multiple of %v", seq[0].Now, e.every)
				}
				// A non-positive interval installs nothing.
				if plain := e.run(t, seqOpts, WithProgress(0, func(Stats) { t.Error("WithProgress(0) ticked") })); plain != seqFinal {
					t.Errorf("the observer moved the run:\nwithout %+v\nwith    %+v", plain, seqFinal)
				}
			})
		}
	}
}
