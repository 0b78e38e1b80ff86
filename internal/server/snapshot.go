package server

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"netupdate/internal/atomicio"
	"netupdate/internal/config"
	"netupdate/internal/core"
)

// SnapshotTenant writes one tenant's portable session image (see
// internal/core/snapshot.go): the current configuration, the run counter,
// and the tenant's shared plan cache. The image is taken under the
// tenant's gate, so it is a consistent point between syntheses; an
// evicted tenant is warmed first (resumed when it parked its session,
// cold otherwise).
// This is the export half of tenant migration: the bytes returned here
// restore on any replica registered with the same spec to a session that
// answers as this one does.
func (p *Pool) SnapshotTenant(ctx context.Context, id string) ([]byte, error) {
	a, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	defer a.leave()
	if _, err := a.wait(ctx, false); err != nil {
		return nil, err
	}
	t := a.t

	sess, err := p.ensureWarm(t)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: session rebuild: %w", t.id, err)
	}
	img, err := p.portable(t, sess)
	if err != nil {
		return nil, fmt.Errorf("server: tenant %s: snapshot: %w", t.id, err)
	}
	return img, nil
}

// InstallSnapshot replaces a registered tenant's warm state with a
// session restored from a portable image — the import half of tenant
// migration, and the restart path behind PoolOptions.SnapshotDir. The
// image must have been taken from a session with the same topology,
// classes, and engine options (the embedded context fingerprint is
// checked). Its configuration arrives as bytes, so every class is built
// and verified on it before the tenant moves there (an image whose
// configuration violates a class is refused like a corrupted one); the
// plan cache the image carries is merged into the tenant's shared store
// (existing entries win — they are at least as fresh — and every plan is
// verified by replay before it is served). Rejected images
// (core.ErrBadSnapshot and friends) leave the tenant untouched. An image
// in an older format moves the tenant to the image's configuration all
// the same — nothing else carries it between processes — and is counted
// as a cold rebuild; both cases are counted in
// netupdate_snapshot_rejects_total and reported on standard error.
func (p *Pool) InstallSnapshot(ctx context.Context, id string, img []byte) error {
	a, err := p.admit(id)
	if err != nil {
		return err
	}
	defer a.leave()
	if _, err := a.wait(ctx, false); err != nil {
		return err
	}
	t := a.t

	sess, err := core.RestoreSessionWith(t.base.Topo, t.base.Specs, t.opts, img, p.sessionResources(t))
	if err != nil {
		t.rejectSnapshot("image refused, tenant left as it was", err)
		return fmt.Errorf("server: tenant %s: install snapshot: %w", t.id, err)
	}
	if c := sess.Cache(); c != nil {
		p.planCache(t.learnID).Merge(c)
	}
	sess.SetCache(p.planCache(t.learnID))
	if sess.RestoredCold() {
		t.rejectSnapshot("tenant moved to the image's configuration, session rebuilt cold",
			errors.New("image in an older format"))
		t.coldRebuilds.Add(1)
	} else {
		t.restores.Add(1)
	}

	p.mu.Lock()
	t.cur = sess.Current()
	p.warmLocked(t, sess)
	p.mu.Unlock()
	return nil
}

// SnapshotAll captures a portable snapshot per tenant, best effort: warm
// idle tenants are serialized live, evicted tenants from the session they
// parked (resumed for the encoding, not made warm), and tenants busy
// mid-synthesis, cold ones, or ones failing to serialize are skipped.
// Close writes these images under PoolOptions.SnapshotDir.
func (p *Pool) SnapshotAll() map[string][]byte {
	p.mu.Lock()
	tenants := make([]*tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		tenants = append(tenants, t)
	}
	p.mu.Unlock()

	out := map[string][]byte{}
	for _, t := range tenants {
		select {
		case t.gate <- struct{}{}:
		default:
			continue
		}
		p.mu.Lock()
		sess, parked := t.sess, t.parked
		p.mu.Unlock()
		if sess == nil && parked != nil && parked.Cur() == t.cur {
			sess = p.resume(t, parked)
		}
		if sess != nil {
			if img, err := p.portable(t, sess); err == nil {
				out[t.id] = img
			}
		}
		p.release(t)
	}
	return out
}

// restoreSaved installs the image PoolOptions.SnapshotDir holds for a
// newly registered tenant, if there is one, and removes the file whether
// or not the image was accepted, so no later registration brings back an
// outdated position. An image that is not installed leaves the tenant at
// its registered configuration, which is what registering it means.
func (p *Pool) restoreSaved(t *tenant) {
	if p.opts.SnapshotDir == "" {
		return
	}
	path := p.snapshotPath(t.id)
	img, err := os.ReadFile(path)
	if err != nil {
		return // no image for this tenant
	}
	// A refusal is counted and reported by InstallSnapshot itself.
	_ = p.InstallSnapshot(context.TODO(), t.id, img) // Register takes no context
	os.Remove(path)
}

// saveAll writes SnapshotAll under PoolOptions.SnapshotDir, one <id>.nuss
// per tenant, each atomically, and returns the joined write errors.
func (p *Pool) saveAll() error {
	if p.opts.SnapshotDir == "" {
		return nil
	}
	if err := os.MkdirAll(p.opts.SnapshotDir, 0o755); err != nil {
		return err
	}
	var errs []error
	for id, img := range p.SnapshotAll() {
		errs = append(errs, atomicio.WriteFileBytes(p.snapshotPath(id), img))
	}
	return errors.Join(errs...)
}

func (p *Pool) snapshotPath(id string) string {
	return filepath.Join(p.opts.SnapshotDir, filepath.Base(id)+".nuss")
}

// ConfigOf returns a tenant's current configuration, or ErrUnknownTenant
// (the pool mutex snapshot is consistent because cur only advances under
// the tenant gate).
func (p *Pool) ConfigOf(id string) (*config.Config, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, err := p.tenantLocked(id)
	if err != nil {
		return nil, err
	}
	return t.cur, nil
}

// rejectSnapshot counts an image that did not become the tenant's warm
// state and says why on standard error: the families alone cannot tell a
// cold rebuild for want of an image from one after a refused image.
func (t *tenant) rejectSnapshot(what string, err error) {
	t.snapRejects.Add(1)
	fmt.Fprintf(os.Stderr, "netupdate: tenant %s: snapshot: %s: %v\n", t.id, what, err)
}
