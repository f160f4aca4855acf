"""Exception types raised across the protocol library and the ledger simulator."""


class AdRewardError(Exception):
    """Base class for all library errors."""


# -- crypto layer ------------------------------------------------------------

class PlaintextTooLarge(AdRewardError):
    """Message exceeds the configured encryption bound."""


class NotInRange(AdRewardError):
    """No discrete log within the requested recovery bound."""


class AuthFailure(AdRewardError):
    """Authenticated decryption failed (tamper or wrong key)."""


class InvalidPublicKey(AdRewardError):
    """A peer's public key is not a group element other than the identity."""


class InvalidConfig(AdRewardError):
    """Draw or threshold configuration violates its invariants."""


class NoQualifiedDealers(AdRewardError):
    """Every key-generation dealer was disqualified."""


class InsufficientShares(AdRewardError):
    """Fewer than the threshold number of partial decryptions."""


class InvalidPartial(AdRewardError):
    """A partial decryption failed proof verification."""


# -- payments ----------------------------------------------------------------

class AmountOutOfRange(AdRewardError):
    """Payment amount outside the note's admissible range."""


class TotalMismatch(AdRewardError):
    """Batch amounts do not sum to the declared total."""


# -- ledger ------------------------------------------------------------------

class BadSignature(AdRewardError):
    """Signature verification failed."""


class BadSequence(AdRewardError):
    """Transaction sequence number is not the next expected one."""


class InsufficientFunds(AdRewardError):
    """Account balance cannot cover the transfer."""


class Revert(AdRewardError):
    """Contract execution aborted; state was rolled back."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- contracts ---------------------------------------------------------------

class Unauthorized(Revert):
    def __init__(self, reason: str = "caller not authorized"):
        super().__init__(reason)


class IndexOutOfRange(Revert):
    def __init__(self, reason: str = "index outside catalog"):
        super().__init__(reason)


class LengthMismatch(Revert):
    def __init__(self, reason: str = "vector length does not match catalog"):
        super().__init__(reason)


class NotFound(Revert):
    def __init__(self, reason: str = "no entry for key"):
        super().__init__(reason)


class ProofRejected(Revert):
    def __init__(self, reason: str = "zero-knowledge proof rejected"):
        super().__init__(reason)


class AlreadyInitialized(Revert):
    def __init__(self, reason: str = "campaign already initialized"):
        super().__init__(reason)


class UnknownAdvertiser(Revert):
    def __init__(self, reason: str = "advertiser not registered"):
        super().__init__(reason)


class UnknownTxRef(Revert):
    def __init__(self, reason: str = "payment reference not found"):
        super().__init__(reason)


class UnknownAddr(Revert):
    def __init__(self, reason: str = "address was never queued"):
        super().__init__(reason)


class BadOpening(Revert):
    def __init__(self, reason: str = "commitment opening does not verify"):
        super().__init__(reason)


class NoSuchRequest(Revert):
    def __init__(self, reason: str = "no matching payment request"):
        super().__init__(reason)


class DuplicateAddress(Revert):
    def __init__(self, reason: str = "payment address already queued"):
        super().__init__(reason)


class CampaignFailed(Revert):
    def __init__(self, reason: str = "campaign flagged as failed"):
        super().__init__(reason)


# -- orchestration -----------------------------------------------------------

class PolicyMismatch(AdRewardError):
    """A sealed on-chain policy does not open to the agreed value."""


class NoWinners(AdRewardError):
    """A draw round selected nobody."""


class ScenarioError(AdRewardError):
    """Scenario file is malformed or inconsistent."""
