int Count;

void *Thread1(void *x) {
    while (Count > 0) {
        Count = Count - 1;
    }
    return 0;
}

int main() {
    pthread_t t;
    Count = 3;
    pthread_create(&t, 0, Thread1, 0);
    Count = Count + 1;
    pthread_join(t, 0);
    return Count;
}
