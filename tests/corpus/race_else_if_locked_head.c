int Level;
int Mode;
int Out;
pthread_mutex_t m = PTHREAD_MUTEX_INITIALIZER;

void *Thread1(void *x) {
    pthread_mutex_lock(&m);
    int l = Level;
    pthread_mutex_unlock(&m);
    if (l > 10) {
        Out = Out + 1;
    } else if (Mode) {
        Out = Out + 1;
    }
    return 0;
}

int main() {
    pthread_t t;
    pthread_create(&t, 0, Thread1, 0);
    pthread_mutex_lock(&m);
    Level = 20;
    pthread_mutex_unlock(&m);
    Mode = 1;
    pthread_join(t, 0);
    return Out;
}
