package tenant

// A wire session subscribed to a tenant's invalidation feed watches
// the tenant's store (service.Store.Watch) and, on each wake, announces
// every shard whose published table has passed the last epoch it
// announced: the published tables are the only copy of each shard's
// epoch. The tenant adds what the store cannot know: the channel its
// eviction closes, revoking every subscription, and the feed's
// counters.

// SubscriptionStats is a tenant's invalidation-feed counters, surfaced
// under "leases" in /metrics.
type SubscriptionStats struct {
	// Subscribers is the current subscription count: the store's
	// watchers.
	Subscribers int `json:"subscribers"`
	// Shootdowns counts shootdown frames pushed to subscribers.
	Shootdowns uint64 `json:"shootdowns"`
	// Expires counts subscriptions revoked by the tenant's eviction.
	Expires uint64 `json:"expires"`
}

// Revoked returns a channel closed when the tenant is evicted: every
// subscription is revoked, and its client must drop its replica rather
// than ride a TTL out against a store about to disappear.
func (t *Tenant) Revoked() <-chan struct{} { return t.revoked }

// CountShootdown counts one shootdown frame pushed to a subscriber.
func (t *Tenant) CountShootdown() { t.shootdowns.Add(1) }

// SubscriptionStats returns the tenant's invalidation-feed counters.
func (t *Tenant) SubscriptionStats() SubscriptionStats {
	return SubscriptionStats{
		Subscribers: t.store.Watchers(),
		Shootdowns:  t.shootdowns.Load(),
		Expires:     t.expires.Load(),
	}
}
