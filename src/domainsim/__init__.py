"""domainsim: corpus similarity metrics and source-domain ranking for
cross-domain sentiment transfer."""

__version__ = "0.1.0"
