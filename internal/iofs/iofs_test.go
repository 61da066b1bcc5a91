package iofs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeThrough performs the cache's canonical durable-write sequence through
// fs: temp create, write, sync, close, rename into place. It returns the
// first error.
func writeThrough(fsys FS, dir, name string, data []byte) error {
	f, err := fsys.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fsys.Rename(f.Name(), filepath.Join(dir, name))
}

func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	if err := writeThrough(fsys, dir, "entry.snap", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.ReadFile(filepath.Join(dir, "entry.snap"))
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadFile = (%q, %v)", got, err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "entry.snap" {
		t.Fatalf("ReadDir = (%v, %v)", ents, err)
	}
	if _, err := fsys.Stat(filepath.Join(dir, "entry.snap")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join(dir, "entry.snap")); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Stat(filepath.Join(dir, "entry.snap")); !os.IsNotExist(err) {
		t.Fatalf("Stat after Remove: %v", err)
	}
}

func TestIsTransient(t *testing.T) {
	if !IsTransient(ErrTransient) {
		t.Error("ErrTransient must be transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", ErrTransient)) {
		t.Error("wrapping must preserve transience")
	}
	if IsTransient(errNoSpace) || IsTransient(errors.New("plain")) || IsTransient(nil) {
		t.Error("permanent and nil errors must not be transient")
	}
}

// TestFaultyModes drives each planned fault through the canonical write
// sequence and checks the observable outcome.
func TestFaultyModes(t *testing.T) {
	t.Run("transientCreate", func(t *testing.T) {
		dir := t.TempDir()
		f := NewFaulty(OS{}, map[int]FaultMode{1: FaultTransient})
		err := writeThrough(f, dir, "e.snap", []byte("abc"))
		if !IsTransient(err) {
			t.Fatalf("want transient error, got %v", err)
		}
		// Second attempt (ops 2..6) is clean.
		if err := writeThrough(f, dir, "e.snap", []byte("abc")); err != nil {
			t.Fatalf("retry failed: %v", err)
		}
	})
	t.Run("noSpaceIsPermanent", func(t *testing.T) {
		dir := t.TempDir()
		f := NewFaulty(OS{}, map[int]FaultMode{2: FaultNoSpace})
		err := writeThrough(f, dir, "e.snap", []byte("abc"))
		if err == nil || IsTransient(err) {
			t.Fatalf("want permanent error, got %v", err)
		}
	})
	t.Run("shortWriteLeavesPrefix", func(t *testing.T) {
		dir := t.TempDir()
		f := NewFaulty(OS{}, map[int]FaultMode{2: FaultShortWrite})
		err := writeThrough(f, dir, "e.snap", []byte("abcdefgh"))
		if !IsTransient(err) {
			t.Fatalf("want transient short-write error, got %v", err)
		}
		ents, _ := os.ReadDir(dir)
		if len(ents) != 1 {
			t.Fatalf("want exactly the torn temp file, got %v", ents)
		}
		data, _ := os.ReadFile(filepath.Join(dir, ents[0].Name()))
		if string(data) != "abcd" {
			t.Errorf("torn temp holds %q, want half the buffer", data)
		}
	})
	t.Run("syncDropLosesDataAtCrash", func(t *testing.T) {
		dir := t.TempDir()
		// Op 3 is the sync (create=1, write=2): dropped. Op 7 (the second
		// file's write) crashes. The first file was renamed into place with
		// no effective sync, so the crash tears it to zero bytes.
		f := NewFaulty(OS{}, map[int]FaultMode{3: FaultSyncDrop, 7: FaultCrash})
		if err := writeThrough(f, dir, "e.snap", []byte("abcdefgh")); err != nil {
			t.Fatalf("dropped sync must look like success: %v", err)
		}
		err := writeThrough(f, dir, "f.snap", []byte("xyz"))
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("want crash, got %v", err)
		}
		if !f.Crashed() {
			t.Fatal("Crashed() = false after crash")
		}
		data, err := os.ReadFile(filepath.Join(dir, "e.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 0 {
			t.Errorf("unsynced data survived the crash: %q", data)
		}
		// The filesystem is frozen now.
		if _, err := f.ReadFile(filepath.Join(dir, "e.snap")); !errors.Is(err, ErrCrashed) {
			t.Errorf("post-crash read = %v, want ErrCrashed", err)
		}
	})
	t.Run("syncedDataSurvivesCrash", func(t *testing.T) {
		dir := t.TempDir()
		// Clean first write (ops 1-5), crash at the second file's sync (op 8).
		f := NewFaulty(OS{}, map[int]FaultMode{8: FaultCrash})
		if err := writeThrough(f, dir, "e.snap", []byte("abcdefgh")); err != nil {
			t.Fatal(err)
		}
		err := writeThrough(f, dir, "f.snap", []byte("xyz"))
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("want crash, got %v", err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "e.snap"))
		if err != nil || string(data) != "abcdefgh" {
			t.Errorf("synced entry must survive: (%q, %v)", data, err)
		}
	})
	t.Run("crashBeforeRename", func(t *testing.T) {
		dir := t.TempDir()
		f := NewFaulty(OS{}, map[int]FaultMode{5: FaultCrash})
		err := writeThrough(f, dir, "e.snap", []byte("abc"))
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("want crash, got %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "e.snap")); !os.IsNotExist(err) {
			t.Error("entry appeared despite crashing before the rename")
		}
	})
}

func TestFaultyOpCount(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS{}, nil)
	if err := writeThrough(f, dir, "e.snap", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// create + write + sync + close + rename = 5 mutating ops; reads none.
	if _, err := f.ReadFile(filepath.Join(dir, "e.snap")); err != nil {
		t.Fatal(err)
	}
	if got := f.Ops(); got != 5 {
		t.Errorf("Ops() = %d, want 5", got)
	}
}

func TestSeededPlanDeterministic(t *testing.T) {
	a := SeededPlan(42, 100, 0.3)
	b := SeededPlan(42, 100, 0.3)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed must yield the same plan")
	}
	if len(a) == 0 {
		t.Error("p=0.3 over 100 ops should inject something")
	}
	c := SeededPlan(43, 100, 0.3)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should yield different plans")
	}
	for op, mode := range a {
		if mode == FaultCrash {
			t.Errorf("seeded plans must not place crashes (op %d)", op)
		}
	}
}

// TestCrashFS checks NewCrash's process-level crash using an injected exit
// func (panic instead of os.Exit).
func TestCrashFS(t *testing.T) {
	runToCrash := func(at int, dir string) (code int, crashed bool) {
		exit := func(c int) { code = c; panic("exit") }
		c := NewCrash(OS{}, at, exit)
		defer func() {
			if r := recover(); r != nil {
				crashed = true
			}
		}()
		if err := writeThrough(c, dir, "e.snap", []byte("abcdefgh")); err != nil {
			t.Fatal(err)
		}
		return code, false
	}

	// The write sequence has 5 mutating ops; crash at each in turn.
	for at := 1; at <= 5; at++ {
		dir := t.TempDir()
		code, crashed := runToCrash(at, dir)
		if !crashed {
			t.Fatalf("at=%d: no crash", at)
		}
		if code != CrashExitCode {
			t.Fatalf("at=%d: exit code %d, want %d", at, code, CrashExitCode)
		}
		if _, err := os.Stat(filepath.Join(dir, "e.snap")); !os.IsNotExist(err) {
			t.Errorf("at=%d: entry appeared despite dying before the rename", at)
		}
		if at == 2 {
			// The crashing write leaves a torn prefix in the temp file.
			ents, _ := os.ReadDir(dir)
			if len(ents) != 1 {
				t.Fatalf("at=2: want one torn temp file, got %v", ents)
			}
			data, _ := os.ReadFile(filepath.Join(dir, ents[0].Name()))
			if string(data) != "abcd" {
				t.Errorf("at=2: torn temp holds %q", data)
			}
		}
	}

	// Beyond the op count: no crash, file lands.
	dir := t.TempDir()
	if code, crashed := runToCrash(99, dir); crashed || code != 0 {
		t.Fatalf("at=99: crashed=%v code=%d", crashed, code)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "e.snap")); err != nil || string(data) != "abcdefgh" {
		t.Errorf("entry = (%q, %v)", data, err)
	}
}
